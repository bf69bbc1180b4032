/**
 * @file
 * Public facade of the SpAtten accelerator model: configuration (Table I),
 * workload execution, and area/power reporting (Table II / Fig. 13).
 * This is the main entry point a library user interacts with.
 */
#ifndef SPATTEN_ACCEL_SPATTEN_ACCELERATOR_HPP
#define SPATTEN_ACCEL_SPATTEN_ACCELERATOR_HPP

#include <string>
#include <vector>

#include "accel/pipeline.hpp"
#include "serve/accelerator_backend.hpp"

namespace spatten {

// The serve layer sits on top of the accel pipeline; the facade only
// forwards to it, so the full definitions stay in serve/batch_runner.hpp
// (include it to use runBatch's argument/result types).
struct BatchRequest;
struct BatchResult;
// Defined in accel/decode_session.hpp (include it to use runDecode's
// result type).
struct DecodeResult;

/**
 * The SpAtten accelerator.
 *
 * Typical use:
 * @code
 *   SpAttenAccelerator accel;                       // Table I config
 *   WorkloadSpec w = ...;                           // e.g. GPT-2, 992+32
 *   PruningPolicy p = ...;                          // token/head/quant
 *   RunResult r = accel.run(w, p);
 *   std::printf("%.3f ms, %.2fx DRAM reduction\n",
 *               r.seconds * 1e3, r.dramReduction());
 * @endcode
 *
 * The facade also implements the serving layer's AcceleratorBackend
 * contract (serve/accelerator_backend.hpp): makeSession() opens a
 * cascade-pruning DecodeSession, so a ContinuousBatchScheduler fleet
 * can mix SpAtten devices with the baseline adapter backends.
 */
class SpAttenAccelerator : public AcceleratorBackend
{
  public:
    explicit SpAttenAccelerator(SpAttenConfig cfg = SpAttenConfig{});

    /** Simulate attention layers of a workload under a policy. */
    RunResult run(const WorkloadSpec& workload, const PruningPolicy& policy,
                  std::uint64_t request_seed = kDefaultRequestSeed);

    /**
     * Serve a batch of requests across @p num_threads workers
     * (0 = one per hardware thread). Deterministic: per-request results
     * are bit-identical at any thread count.
     */
    BatchResult runBatch(const std::vector<BatchRequest>& batch,
                         std::size_t num_threads = 0) const;

    /**
     * Run a full prefill + token-by-token decode loop through a
     * DecodeSession: each generated token re-enters the stage graph with
     * the cascade-pruned KV length of the previous step (unlike run(),
     * which re-applies the schedule to the full grown context per
     * iteration). Returns per-step latencies and the KV trajectory along
     * with the aggregate RunResult.
     */
    DecodeResult runDecode(const WorkloadSpec& workload,
                           const PruningPolicy& policy,
                           std::uint64_t request_seed =
                               kDefaultRequestSeed) const;

    // ---- AcceleratorBackend serving contract ----
    std::string backendName() const override { return "spatten"; }
    BackendCapabilities capabilities() const override
    {
        return {/*cascade_pruning=*/true, /*progressive_quant=*/true,
                /*dram_savings=*/true};
    }
    /** KV byte budget = the HBM stack capacity of this configuration. */
    std::uint64_t capacityBytes() const override
    {
        return cfg_.hbm.capacityBytes();
    }
    /** The fetcher streams quantized planes out of an fp16-equivalent
     *  KV layout (see core/model_spec.hpp). */
    std::size_t kvBytesPerElem() const override { return 2; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override;
    /**
     * Batched decode: all lanes advance through the stage graph
     * layer-major (every lane runs layer l before any lane starts
     * l + 1), interleaving the per-request passes the way a batched
     * hardware iteration would — one graph traversal per iteration
     * with per-request lanes. Lanes whose step the replay memo serves
     * whole complete at begin and sit out the layer loop. Sessions
     * share no state, so the result is bit-identical to the serial
     * default (pinned by the BatchedDecode test suite). Every lane
     * must be a DecodeSession; any other session type panics.
     */
    void stepDecodeBatch(const std::vector<BackendSession*>& lanes,
                         std::vector<double>& seconds_out) const override;

    /** Fig. 13 area breakdown for this configuration. */
    std::vector<AreaEntry> area() const;

    /** Total area in mm^2. */
    double areaMm2() const;

    /** Peak compute (TFLOPS) — the roofline computation roof. */
    double computeRoofTflops() const;

    /** Peak DRAM bandwidth (GB/s) — the roofline slope. */
    double bandwidthRoofGBs() const;

    /** Human-readable Table I-style configuration dump. */
    std::string configTable() const;

    const SpAttenConfig& config() const { return cfg_; }

  private:
    SpAttenConfig cfg_;
    SpAttenPipeline pipeline_;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_SPATTEN_ACCELERATOR_HPP
