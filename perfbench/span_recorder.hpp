/**
 * @file
 * Host-time spans recorded around every call the traced run makes
 * across the AcceleratorBackend / BackendSession boundary.
 *
 * The scheduler may call sessions from its StepPool helper threads, so
 * record() is safe from any thread: each thread appends to its own
 * buffer (registered once under a mutex), and spans() merges the
 * buffers after the run has joined its helpers.
 */
#ifndef PERFBENCH_SPAN_RECORDER_HPP
#define PERFBENCH_SPAN_RECORDER_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/** Which backend call a span covers. */
enum class SpanKind : std::uint8_t
{
    MakeSession,  ///< AcceleratorBackend::makeSession
    Prefill,      ///< prefill() or prefillWithCachedPrefix()
    PrefillChunk, ///< prefillChunk()
    DecodeStep,   ///< BackendSession::decodeStep (per-request path)
    DecodeBatch,  ///< AcceleratorBackend::stepDecodeBatch
    Finalize,     ///< BackendSession::finalize
};
constexpr std::size_t kNumSpanKinds = 6;

/** One timed call. */
struct Span
{
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Work the call did: prompt tokens computed (prefill kinds), lanes
    /// (DecodeBatch), or 1.
    std::size_t work = 0;
    SpanKind kind = SpanKind::MakeSession;
};

/** Monotonic host clock in nanoseconds. */
std::int64_t nowNs();

/** Thread-safe in-memory span sink for one traced run. */
class SpanRecorder
{
  public:
    SpanRecorder();
    // Threads cache a pointer into this recorder's buffers.
    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;
    SpanRecorder(SpanRecorder&&) = delete;
    SpanRecorder& operator=(SpanRecorder&&) = delete;

    void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                std::size_t work);

    /** Accumulate a finished session's decode-memo replays. */
    void addMemoReplays(std::size_t replays)
    {
        memo_replays_.fetch_add(replays, std::memory_order_relaxed);
    }
    std::size_t memoReplays() const
    {
        return memo_replays_.load(std::memory_order_relaxed);
    }

    /** Every recorded span. Call only once all recording threads have
     *  been joined (ContinuousBatchScheduler::run joins its pool). */
    std::vector<Span> spans() const;

  private:
    const std::uint64_t id_;
    std::atomic<std::size_t> memo_replays_{0};
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<std::vector<Span>>> buffers_; ///< mu_
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_RECORDER_HPP
