/**
 * @file
 * Pass-through decorators that time every work call a scheduler makes
 * across the serving boundary, from outside the program.
 *
 * TracedBackend wraps one fleet slot's AcceleratorBackend and hands out
 * TracedSessions wrapping the inner backend's sessions. Every call is
 * forwarded unchanged, so the traced run simulates the same program:
 * in particular stepDecodeBatch() unwraps its lanes to the inner
 * sessions before forwarding, because SpAttenAccelerator's batched
 * path downcasts each lane to its own DecodeSession and would
 * otherwise fall back to the serial per-lane default.
 *
 * Timed calls: makeSession, prefill, prefillWithCachedPrefix,
 * prefillChunk, decodeStep, stepDecodeBatch, finalize. The cheap
 * accessors (prefilled, done, kvLength, kvTrace, workload and the
 * backend's capability queries) are forwarded untimed; their cost is
 * part of the scheduler's self time.
 */
#ifndef PERFBENCH_TRACED_BACKEND_HPP
#define PERFBENCH_TRACED_BACKEND_HPP

#include <memory>
#include <string>
#include <vector>

#include "serve/accelerator_backend.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "span_recorder.hpp"

namespace perfbench {

/** A BackendSession whose work calls land as spans in a recorder. */
class TracedSession final : public spatten::BackendSession
{
  public:
    TracedSession(std::unique_ptr<spatten::BackendSession> inner,
                  SpanRecorder& rec);
    /** Lands the inner session's decode-memo replay count. */
    ~TracedSession() override;
    TracedSession(const TracedSession&) = delete;
    TracedSession& operator=(const TracedSession&) = delete;
    TracedSession(TracedSession&&) = delete;
    TracedSession& operator=(TracedSession&&) = delete;

    double prefill() override;
    double prefillWithCachedPrefix(std::size_t cached_prefix_tokens)
        override;
    double prefillChunk(std::size_t offset, std::size_t len) override;
    double decodeStep() override;
    bool prefilled() const override { return inner_->prefilled(); }
    bool done() const override { return inner_->done(); }
    std::size_t kvLength() const override { return inner_->kvLength(); }
    const std::vector<std::size_t>& kvTrace() const override
    {
        return inner_->kvTrace();
    }
    const spatten::WorkloadSpec& workload() const override
    {
        return inner_->workload();
    }
    spatten::RunResult finalize() const override;

    spatten::BackendSession* inner() { return inner_.get(); }

  private:
    std::unique_ptr<spatten::BackendSession> inner_;
    SpanRecorder& rec_;
};

/** A fleet slot whose sessions and batched decode calls are traced. */
class TracedBackend final : public spatten::AcceleratorBackend
{
  public:
    TracedBackend(std::shared_ptr<const spatten::AcceleratorBackend> inner,
                  SpanRecorder& rec);

    std::string backendName() const override
    {
        return inner_->backendName();
    }
    spatten::BackendCapabilities capabilities() const override
    {
        return inner_->capabilities();
    }
    std::uint64_t capacityBytes() const override
    {
        return inner_->capacityBytes();
    }
    std::size_t kvBytesPerElem() const override
    {
        return inner_->kvBytesPerElem();
    }
    std::unique_ptr<spatten::BackendSession>
    makeSession(const spatten::WorkloadSpec& workload,
                const spatten::PruningPolicy& policy,
                std::uint64_t request_seed) const override;
    void stepDecodeBatch(const std::vector<spatten::BackendSession*>& lanes,
                         std::vector<double>& seconds_out) const override;

  private:
    std::shared_ptr<const spatten::AcceleratorBackend> inner_;
    SpanRecorder& rec_;
};

/** Wrap every slot of @p fleet in a TracedBackend recording to @p rec. */
spatten::AcceleratorFleet traceFleet(const spatten::AcceleratorFleet& fleet,
                                     SpanRecorder& rec);

} // namespace perfbench

#endif // PERFBENCH_TRACED_BACKEND_HPP
