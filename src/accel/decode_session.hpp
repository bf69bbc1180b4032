/**
 * @file
 * Token-by-token generative decode on the stage graph.
 *
 * DecodeSession is the per-request unit of the continuous-batching
 * serving model (serve/continuous_batch_scheduler.hpp): one prefill pass
 * over the prompt, then one decodeStep() per generated token. Unlike
 * SpAttenPipeline::run(), which re-applies the pruning schedule to the
 * full grown context every generation iteration, a session carries the
 * cascade-pruned KV length across steps — each generated token re-enters
 * the stage graph against `kv + 1` tokens, where `kv` is the survivor
 * count the previous pass left behind. Under cascade pruning the KV
 * working set therefore shrinks as decode proceeds (pinned by
 * tests/test_continuous_scheduler.cpp); with pruning disabled it grows
 * by exactly one token per step.
 *
 * A session is a pure function of (config, workload, policy, seed): its
 * step costs, KV trajectory, and finalized RunResult are bit-identical
 * regardless of which scheduler thread or accelerator shard drives it.
 *
 * DecodeSession implements the serving layer's BackendSession contract
 * (serve/accelerator_backend.hpp), so a SpAtten device slots into the
 * same heterogeneous scheduler fleet as the baseline adapter sessions.
 */
#ifndef SPATTEN_ACCEL_DECODE_SESSION_HPP
#define SPATTEN_ACCEL_DECODE_SESSION_HPP

#include <cstdint>
#include <vector>

#include "accel/attention_graph.hpp"
#include "accel/pipeline.hpp"
#include "serve/accelerator_backend.hpp"

namespace spatten {

/** Outcome of a full prefill + decode loop (SpAttenAccelerator::runDecode). */
struct DecodeResult
{
    RunResult result;             ///< Aggregate per-request simulation result.
    double prefill_seconds = 0;   ///< Prompt-processing (TTFT) share.
    std::vector<double> step_seconds;      ///< One entry per generated token.
    std::vector<std::size_t> kv_lengths;   ///< KV survivors after prefill
                                           ///< and after each decode step.
    std::size_t peak_kv_bytes = 0; ///< Largest resident KV cache across
                                   ///< the loop: the un-pruned prompt KV
                                   ///< held during prefill and each
                                   ///< decode pass's pre-prune transient
                                   ///< (carried KV + 1 token) — what a
                                   ///< serving-layer KvPool charges,
                                   ///< before block rounding.
};

/** One in-flight generative request on one simulated accelerator. */
class DecodeSession : public BackendSession
{
  public:
    DecodeSession(const SpAttenConfig& cfg, const WorkloadSpec& workload,
                  const PruningPolicy& policy,
                  std::uint64_t request_seed = kDefaultRequestSeed);

    // The attention graph holds references into its own members, so a
    // session is pinned to its address (heap-allocate to hand around).
    DecodeSession(const DecodeSession&) = delete;
    DecodeSession& operator=(const DecodeSession&) = delete;

    /**
     * One chunk of a split prefill: run prompt tokens
     * [offset, offset + len) as the pass's queries against the causal
     * context offset + len. ExecutionContext::beginPass resets the
     * cascade state fresh per pass, so pruning is a function of the
     * *entering context length* alone — the final chunk enters with the
     * full prompt context and therefore leaves exactly the KV state a
     * monolithic prefill would, making every subsequent decode step
     * bit-identical to the unchunked run (pinned by
     * tests/test_chunked_prefill.cpp); only the prefill compute is
     * spread (and shrunk — earlier chunks attend to shorter contexts)
     * across iterations. prefilled() flips at the final chunk.
     * Workloads with skip_summarization (the paper's GPT-2
     * methodology: a pre-summarized sentence) charge no prefill time
     * and enter decode with the full unpruned prompt KV.
     */
    double prefillChunk(std::size_t offset, std::size_t len) override;

    /**
     * Generate one token: run a single-query generation pass against the
     * carried KV plus the previous step's token, then adopt the pass's
     * pruned survivor count as the next KV length.
     * @return simulated seconds of the step.
     */
    double decodeStep() override;

    /**
     * Layer-stepped decode for batched lane-interleaved evaluation
     * (SpAttenAccelerator::stepDecodeBatch): beginDecodeStep() opens
     * the pass and returns the number of stepDecodeLayer() calls owed
     * (0 when the step was served whole from the replay memo);
     * endDecodeStep() lands the KV bookkeeping and returns the step's
     * simulated seconds. The sequence begin / stepLayer x N / end is
     * exactly decodeStep() — decodeStep() itself runs through it.
     */
    std::size_t beginDecodeStep();
    void stepDecodeLayer() { graph_.stepDecodeLayer(); }
    double endDecodeStep();

    bool prefilled() const override { return prefilled_; }

    /** All generate_len tokens emitted (a 0-token request is done at
     *  prefill). */
    bool done() const override
    {
        return prefilled_ && tokens_ >= workload_.generate_len;
    }

    /** Current cascade-pruned KV length (survivors of the last pass). */
    std::size_t kvLength() const override { return kv_len_; }

    /** Bytes one token of this session's KV cache occupies. */
    std::size_t kvBytesPerToken() const
    {
        return spatten::kvBytesPerToken(workload_.model);
    }

    /**
     * Resident KV-cache bytes right now (cascade-pruned length x bytes
     * per token), before any allocator block rounding. Introspection
     * only: a serving-layer KvPool accounts in token counts and applies
     * its own block rounding via KvPool::bytesForTokens.
     */
    std::size_t kvBytes() const { return kv_len_ * kvBytesPerToken(); }

    std::size_t tokensGenerated() const { return tokens_; }
    std::size_t tokensTotal() const { return workload_.generate_len; }

    /** KV survivor count after prefill and after each decode step. */
    const std::vector<std::size_t>& kvTrace() const override
    {
        return kv_trace_;
    }

    const WorkloadSpec& workload() const override { return workload_; }

    /** Total simulated seconds consumed so far (prefill + steps). */
    double elapsedSeconds() const { return graph_.elapsedSeconds(); }

    /** Enable/disable the decode-step replay memo (default on). The
     *  memo is a pure host-side optimization — every simulated result
     *  is bit-identical either way (tests/test_decode_step_memo.cpp);
     *  turn it off only for A/B perf measurement. */
    void setStepMemo(bool on) { graph_.setStepMemo(on); }
    /** Decode steps served by replaying the recorded pass. */
    std::size_t memoReplays() const { return graph_.memoReplays(); }
    /** Serve HBM via the reference model (see AttentionGraph). */
    void setReferenceServing(bool on) { graph_.setReferenceServing(on); }

    /** Land the per-request totals; call once the session is done() —
     *  or at eviction, possibly mid-prefill, to account the wasted
     *  incarnation (recompute-style preemption can strike between
     *  chunks of a split prefill). */
    RunResult finalize() const override;

  private:
    WorkloadSpec workload_;
    AttentionGraph graph_;
    std::size_t kv_len_ = 0;
    std::size_t tokens_ = 0;
    bool prefilled_ = false;
    std::size_t prefill_pos_ = 0; ///< Prompt tokens processed by chunks.
    double prefill_seconds_ = 0;
    double step_before_s_ = 0; ///< Elapsed at beginDecodeStep().
    std::vector<std::size_t> kv_trace_;
};

} // namespace spatten

#endif // SPATTEN_ACCEL_DECODE_SESSION_HPP
