#include "traced_backend.hpp"

#include <algorithm>

#include "accel/decode_session.hpp"
#include "common/logging.hpp"

namespace perfbench {

namespace {

/// Prompt tokens a prefill pass computes: none for a pre-summarized
/// prompt, and never the last token's share of a cached prefix (the
/// device always recomputes it; see DecodeSession).
std::size_t
computedPromptTokens(const spatten::WorkloadSpec& w, std::size_t cached)
{
    if (w.skip_summarization || w.summarize_len == 0)
        return 0;
    return w.summarize_len - std::min(cached, w.summarize_len - 1);
}

} // namespace

TracedSession::TracedSession(std::unique_ptr<spatten::BackendSession> inner,
                             SpanRecorder& rec)
    : inner_(std::move(inner)), rec_(rec)
{
}

TracedSession::~TracedSession()
{
    if (const auto* d =
            dynamic_cast<const spatten::DecodeSession*>(inner_.get()))
        rec_.addMemoReplays(d->memoReplays());
}

double
TracedSession::prefill()
{
    const std::int64_t t0 = nowNs();
    const double s = inner_->prefill();
    rec_.record(SpanKind::Prefill, t0, nowNs(),
                computedPromptTokens(inner_->workload(), 0));
    return s;
}

double
TracedSession::prefillWithCachedPrefix(std::size_t cached_prefix_tokens)
{
    const std::int64_t t0 = nowNs();
    const double s = inner_->prefillWithCachedPrefix(cached_prefix_tokens);
    rec_.record(SpanKind::Prefill, t0, nowNs(),
                computedPromptTokens(inner_->workload(),
                                     cached_prefix_tokens));
    return s;
}

double
TracedSession::prefillChunk(std::size_t offset, std::size_t len)
{
    const std::int64_t t0 = nowNs();
    const double s = inner_->prefillChunk(offset, len);
    rec_.record(SpanKind::PrefillChunk, t0, nowNs(),
                inner_->workload().skip_summarization ? 0 : len);
    return s;
}

double
TracedSession::decodeStep()
{
    const std::int64_t t0 = nowNs();
    const double s = inner_->decodeStep();
    rec_.record(SpanKind::DecodeStep, t0, nowNs(), 1);
    return s;
}

spatten::RunResult
TracedSession::finalize() const
{
    const std::int64_t t0 = nowNs();
    spatten::RunResult r = inner_->finalize();
    rec_.record(SpanKind::Finalize, t0, nowNs(), 1);
    return r;
}

TracedBackend::TracedBackend(
    std::shared_ptr<const spatten::AcceleratorBackend> inner,
    SpanRecorder& rec)
    : inner_(std::move(inner)), rec_(rec)
{
}

std::unique_ptr<spatten::BackendSession>
TracedBackend::makeSession(const spatten::WorkloadSpec& workload,
                           const spatten::PruningPolicy& policy,
                           std::uint64_t request_seed) const
{
    const std::int64_t t0 = nowNs();
    auto inner = inner_->makeSession(workload, policy, request_seed);
    rec_.record(SpanKind::MakeSession, t0, nowNs(), 1);
    return std::make_unique<TracedSession>(std::move(inner), rec_);
}

void
TracedBackend::stepDecodeBatch(
    const std::vector<spatten::BackendSession*>& lanes,
    std::vector<double>& seconds_out) const
{
    // Forward the inner sessions, so the inner backend sees exactly the
    // lanes an untraced run hands it. Only the coordinator thread makes
    // batched calls, so one scratch vector per thread suffices.
    thread_local std::vector<spatten::BackendSession*> inner_lanes;
    inner_lanes.clear();
    for (spatten::BackendSession* lane : lanes) {
        auto* traced = dynamic_cast<TracedSession*>(lane);
        if (!traced)
            spatten::panic("stepDecodeBatch was handed a session this "
                           "traced backend did not make");
        inner_lanes.push_back(traced->inner());
    }
    const std::int64_t t0 = nowNs();
    inner_->stepDecodeBatch(inner_lanes, seconds_out);
    rec_.record(SpanKind::DecodeBatch, t0, nowNs(), lanes.size());
}

spatten::AcceleratorFleet
traceFleet(const spatten::AcceleratorFleet& fleet, SpanRecorder& rec)
{
    spatten::AcceleratorFleet traced;
    traced.reserve(fleet.size());
    for (const auto& backend : fleet)
        traced.push_back(std::make_shared<TracedBackend>(backend, rec));
    return traced;
}

} // namespace perfbench
