#include "accel/decode_session.hpp"

#include "common/logging.hpp"

namespace spatten {

DecodeSession::DecodeSession(const SpAttenConfig& cfg,
                             const WorkloadSpec& workload,
                             const PruningPolicy& policy,
                             std::uint64_t request_seed)
    : workload_(workload), graph_(cfg, workload, policy, request_seed)
{
    SPATTEN_ASSERT(workload_.summarize_len >= 1, "empty prompt");
    // The unpruned trajectory peaks at summarize + generate tokens; the
    // pruned one only shrinks from there, so this bound covers both.
    SPATTEN_ASSERT(workload_.summarize_len + workload_.generate_len <=
                       cfg.max_context,
                   "context %zu exceeds SRAM-backed max %zu",
                   workload_.summarize_len + workload_.generate_len,
                   cfg.max_context);
}

double
DecodeSession::prefillChunk(std::size_t offset, std::size_t len)
{
    SPATTEN_ASSERT(!prefilled_, "prefillChunk() after prefill completed");
    const std::size_t prompt = workload_.summarize_len;
    SPATTEN_ASSERT(len >= 1 && offset + len <= prompt,
                   "chunk [%zu, %zu) outside the %zu-token prompt",
                   offset, offset + len, prompt);
    SPATTEN_ASSERT(prefill_pos_ == 0 || offset == prefill_pos_,
                   "non-contiguous chunk at %zu (expected %zu)", offset,
                   prefill_pos_);
    if (workload_.skip_summarization) {
        // Pre-summarized prompt: the KV cache exists but no prefill
        // compute is charged, matching SpAttenPipeline's methodology.
        prefilled_ = true;
        prefill_pos_ = prompt;
        kv_len_ = prompt;
        kv_trace_.push_back(kv_len_);
        return 0.0;
    }
    const double before = graph_.elapsedSeconds();
    // The chunk's queries attend to the causal context they close
    // (tokens [0, offset + len)). beginPass resets the cascade state,
    // so each chunk prunes from its own entering context — intermediate
    // survivor counts are transient, and the final chunk (entering with
    // the full prompt) reproduces the monolithic prefill's KV exactly.
    graph_.runPass(len, offset + len, false);
    prefill_pos_ = offset + len;
    // Cumulative: nothing but prefill chunks has run on the graph yet,
    // so the graph's elapsed time *is* the prefill share — and it is
    // already correct at a mid-prefill eviction's finalize().
    prefill_seconds_ = graph_.elapsedSeconds();
    if (prefill_pos_ == prompt) {
        prefilled_ = true;
        kv_len_ = graph_.context().alive_tokens;
        kv_trace_.push_back(kv_len_);
    }
    return graph_.elapsedSeconds() - before;
}

double
DecodeSession::decodeStep()
{
    const std::size_t layers = beginDecodeStep();
    for (std::size_t l = 0; l < layers; ++l)
        graph_.stepDecodeLayer();
    return endDecodeStep();
}

std::size_t
DecodeSession::beginDecodeStep()
{
    SPATTEN_ASSERT(prefilled_, "decodeStep() before prefill()");
    SPATTEN_ASSERT(!done(), "decodeStep() past generate_len");
    step_before_s_ = graph_.elapsedSeconds();
    // The new token's K/V joins the pruned survivors of the last pass.
    return graph_.beginDecodePass(kv_len_ + 1);
}

double
DecodeSession::endDecodeStep()
{
    graph_.finishDecodePass();
    kv_len_ = graph_.context().alive_tokens;
    kv_trace_.push_back(kv_len_);
    ++tokens_;
    return graph_.elapsedSeconds() - step_before_s_;
}

RunResult
DecodeSession::finalize() const
{
    // No prefilled_ assert: a session evicted mid-prefill (between
    // chunks) finalizes too, accounting the wasted partial pass.
    RunResult res;
    res.workload = workload_.name;
    res.summarize_seconds = prefill_seconds_;
    res.generate_seconds = graph_.elapsedSeconds() - prefill_seconds_;
    graph_.finalize(res);
    return res;
}

} // namespace spatten
