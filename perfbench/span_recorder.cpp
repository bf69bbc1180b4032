#include "span_recorder.hpp"

#include <chrono>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

/// This thread's buffer in the recorder it last wrote to. Recorder ids
/// are never reused, so a stale cache is detected even when a new
/// recorder lands at a freed recorder's address.
struct ThreadBuffer
{
    std::uint64_t owner = 0;
    std::vector<Span>* spans = nullptr;
};
thread_local ThreadBuffer t_buffer;

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanRecorder::SpanRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed))
{
}

void
SpanRecorder::record(SpanKind kind, std::int64_t start_ns,
                     std::int64_t end_ns, std::size_t work)
{
    if (t_buffer.owner != id_) {
        std::lock_guard<std::mutex> lk(mu_);
        buffers_.push_back(std::make_unique<std::vector<Span>>());
        buffers_.back()->reserve(std::size_t{1} << 16);
        t_buffer = {id_, buffers_.back().get()};
    }
    t_buffer.spans->push_back({start_ns, end_ns, work, kind});
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_)
        all.insert(all.end(), b->begin(), b->end());
    return all;
}

} // namespace perfbench
