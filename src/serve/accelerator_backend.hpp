/**
 * @file
 * The common serving contract every simulated accelerator implements.
 *
 * The paper's headline claims are comparative — SpAtten against A3,
 * MNNFast, and the CPU/GPU platforms — but a comparison under real
 * serving conditions (traffic, KV-memory pressure, preemption) needs
 * every device to speak the same protocol the scheduler drives:
 * admit a request, run its prefill, step its decode loop one token at
 * a time, report its resident KV footprint, and finalize per-request
 * stats. AcceleratorBackend is that protocol. SpAttenAccelerator
 * implements it natively (sessions are cascade-pruning DecodeSessions);
 * the baseline models implement it through dense-KV adapter sessions
 * (baselines/baseline_backends.hpp) with their own cycle/energy models.
 * ContinuousBatchScheduler owns a heterogeneous pool of backends and is
 * oblivious to which device type sits behind each slot.
 *
 * Sessions must be pure functions of (backend config, workload, policy,
 * seed): bit-identical regardless of which scheduler thread or fleet
 * slot drives them. That is what keeps the scheduler's determinism
 * contract (thread-count bit-identity, placement-independent service
 * results) intact across heterogeneous fleets.
 */
#ifndef SPATTEN_SERVE_ACCELERATOR_BACKEND_HPP
#define SPATTEN_SERVE_ACCELERATOR_BACKEND_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/pipeline.hpp"
#include "common/logging.hpp"

namespace spatten {

/**
 * Static capability description of one backend type. The scheduler's
 * capability-aware placement and the README capability matrix both read
 * these bits; they describe the *mechanism*, not a measured outcome.
 */
struct BackendCapabilities
{
    /// Cascade token/head pruning shrinks the resident KV cache across
    /// passes (so a KvPool reservation keeps shrinking after prefill).
    bool cascade_pruning = false;
    /// Progressive MSB/LSB quantization trims DRAM traffic further.
    bool progressive_quant = false;
    /// Any DRAM-traffic savings at all (pruning decided before fetch).
    bool dram_savings = false;
};

/**
 * One in-flight generative request on one backend: prefill once, then
 * one decodeStep() per generated token. The KV accessors feed the
 * serving layer's KvPool; kvLength() is whatever the device actually
 * keeps resident (cascade-pruned survivors on SpAtten, the full dense
 * context on the baselines).
 */
class BackendSession
{
  public:
    virtual ~BackendSession() = default;

    /** Process the whole prompt; @return simulated seconds of the pass.
     *  Exactly prefillWithCachedPrefix(0). */
    virtual double prefill() { return prefillWithCachedPrefix(0); }

    /**
     * Process the prompt when the serving layer's KvPool mapped the
     * first @p cached_prefix_tokens tokens' KV from its shared-prefix
     * cache: the device skips those tokens' prefill compute (their K/V
     * is already resident) and computes only the suffix queries against
     * the full context — the single chunk
     * prefillChunk(cached, summarize_len - cached). The hint is capped
     * at summarize_len - 1: like vLLM, the last prompt token is always
     * recomputed so a fully cached prompt still produces its first
     * logits. A pre-summarized prompt (skip_summarization) is one
     * whole-prompt chunk whatever the hint.
     */
    virtual double prefillWithCachedPrefix(std::size_t cached_prefix_tokens)
    {
        SPATTEN_ASSERT(!prefilled(), "prefill() called twice");
        const std::size_t prompt = workload().summarize_len;
        if (workload().skip_summarization)
            return prefillChunk(0, prompt);
        const std::size_t cached =
            std::min(cached_prefix_tokens, prompt - 1);
        return prefillChunk(cached, prompt - cached);
    }

    /**
     * Process prompt tokens [offset, offset + len) as one prompt pass —
     * the one prompt entry the scheduler calls (Sarathi-style chunked
     * prefill when a prompt is split). Chunks arrive contiguously in
     * order; the session completes its prefill (and flips prefilled())
     * when the final chunk reaches the end of the prompt. A first chunk
     * at offset > 0 means the serving layer's shared-prefix cache
     * already holds the leading tokens' KV, so the chunk stream starts
     * at the cached boundary — prefillWithCachedPrefix() is exactly the
     * one-chunk case. @return simulated seconds of the chunk's pass.
     */
    virtual double prefillChunk(std::size_t offset, std::size_t len) = 0;

    /** Generate one token; @return simulated seconds of the step. */
    virtual double decodeStep() = 0;

    virtual bool prefilled() const = 0;

    /** All generate_len tokens emitted (a 0-token request is done at
     *  prefill). */
    virtual bool done() const = 0;

    /** Resident KV length in tokens after the last pass. */
    virtual std::size_t kvLength() const = 0;

    /** KV length after prefill and after each decode step. */
    virtual const std::vector<std::size_t>& kvTrace() const = 0;

    virtual const WorkloadSpec& workload() const = 0;

    /** Land the per-request totals; call once the session is done()
     *  (or at eviction, to account the wasted incarnation). */
    virtual RunResult finalize() const = 0;
};

/** One accelerator type a serving fleet can be built from. */
class AcceleratorBackend
{
  public:
    virtual ~AcceleratorBackend() = default;

    /** Short identifier ("spatten", "a3", ...) for reports/benches. */
    virtual std::string backendName() const = 0;

    virtual BackendCapabilities capabilities() const = 0;

    /** Device KV-memory capacity (the default KvPool byte budget). */
    virtual std::uint64_t capacityBytes() const = 0;

    /** Storage width of one KV element on this device (bytes). */
    virtual std::size_t kvBytesPerElem() const = 0;

    /** Bytes one token of @p model's KV occupies on this device — the
     *  figure the serving layer's KvPool charges per resident token. */
    std::size_t kvBytesPerToken(const ModelSpec& model) const
    {
        return spatten::kvBytesPerToken(model, kvBytesPerElem());
    }

    /**
     * Open a serving session for one request. Deterministic: the
     * session's behavior is a pure function of (backend config,
     * workload, policy, seed).
     */
    virtual std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const = 0;

    /**
     * Advance every session in @p lanes by one decode step, landing
     * lane i's simulated seconds in @p seconds_out[i] (resized to
     * match). Sessions are pure functions of their own state and share
     * nothing, so this is *semantically identical* to calling
     * lanes[i]->decodeStep() serially — which is exactly the default —
     * and results are bit-identical whichever path runs. A backend may
     * override it to traverse its stage graph once per iteration with
     * per-request lanes (SpAttenAccelerator advances all lanes
     * layer-major), amortizing per-step dispatch and buffers. This is
     * the scheduler's only decode entry: every iteration advances all
     * of its prefilled residents through one call, whether or not the
     * iteration also runs prompt passes.
     */
    virtual void stepDecodeBatch(const std::vector<BackendSession*>& lanes,
                                 std::vector<double>& seconds_out) const
    {
        seconds_out.resize(lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i)
            seconds_out[i] = lanes[i]->decodeStep();
    }
};

} // namespace spatten

#endif // SPATTEN_SERVE_ACCELERATOR_BACKEND_HPP
