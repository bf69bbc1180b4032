#include "checks.hpp"

#include <cstdio>
#include <cstring>
#include <string>

namespace perfbench {

namespace {

/// FNV-1a over the exact bit patterns of the values fed to it.
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffU;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
    void add(const std::string& s)
    {
        add(s.size());
        for (char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    template <typename T>
    void add(const std::vector<T>& v)
    {
        add(v.size());
        for (const T& x : v)
            add(x);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
addResult(Digest& d, const spatten::RunResult& r)
{
    d.add(r.workload);
    d.add(static_cast<std::uint64_t>(r.cycles));
    for (double v : {r.seconds, r.summarize_seconds, r.generate_seconds,
                     r.attention_flops, r.attention_flops_dense,
                     r.dram_bytes, r.dram_bytes_dense})
        d.add(v);
    const spatten::EnergyReport& e = r.energy;
    for (double v : {e.qk_j, e.pv_j, e.softmax_j, e.topk_j, e.fetcher_j,
                     e.sram_j, e.dram_j, e.migration_j, e.leakage_j,
                     e.seconds})
        d.add(v);
    for (const auto& [name, value] : r.stats.all()) {
        d.add(name);
        d.add(value);
    }
}

} // namespace

std::size_t
countBadRequests(const std::vector<spatten::TracedRequest>& trace,
                 const spatten::ServeReport& report)
{
    if (report.requests.size() != trace.size()) {
        std::fprintf(stderr, "check: report holds %zu requests, trace %zu\n",
                     report.requests.size(), trace.size());
        return trace.size();
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const spatten::ServedRequest& r = report.requests[i];
        const std::size_t want = trace[i].workload.generate_len;
        bool ok = r.phase == spatten::RequestPhase::Finished &&
                  r.tokens == want && r.token_times_s.size() == want;
        double prev = trace[i].arrival_s;
        for (double t : r.token_times_s) {
            ok = ok && t >= prev;
            prev = t;
        }
        if (!ok) {
            ++bad;
            std::fprintf(stderr,
                         "check: request %zu emitted %zu tokens (want "
                         "%zu) or has out-of-order token times\n",
                         i, r.tokens, want);
        }
    }
    return bad;
}

std::uint64_t
resultDigest(const spatten::RunResult& r)
{
    Digest d;
    addResult(d, r);
    return d.value();
}

std::uint64_t
reportDigest(const spatten::ServeReport& r)
{
    Digest d;
    d.add(r.requests.size());
    for (const spatten::ServedRequest& q : r.requests) {
        d.add(q.id);
        d.add(q.accel);
        d.add(static_cast<int>(q.phase));
        d.add(q.priority);
        for (double v : {q.arrival_s, q.admit_s, q.first_token_s, q.finish_s,
                         q.service_seconds})
            d.add(v);
        for (std::size_t v : {q.preemptions, q.recompute_tokens,
                              q.cached_prefix_tokens, q.prefill_chunks,
                              q.tokens})
            d.add(v);
        d.add(q.token_times_s);
        d.add(q.kv_trace);
        addResult(d, q.sim);
    }
    for (double v :
         {r.makespan_s, r.ttft_p50_s, r.ttft_p99_s, r.itl_p50_s, r.itl_p99_s,
          r.req_itl_p99_p50_s, r.req_itl_p99_p99_s, r.queue_delay_p50_s,
          r.queue_delay_p99_s, r.throughput_rps, r.goodput_rps,
          r.tokens_per_s, r.total_cycles, r.total_energy_j, r.total_flops,
          r.dram_reduction, r.migration_energy_j, r.promotion_stall_s})
        d.add(v);
    for (std::size_t v :
         {r.slo_met, r.total_tokens, r.preemptions, r.recompute_tokens,
          r.peak_concurrency, r.prefix_cache_hits, r.prefix_cached_tokens,
          r.cow_copied_blocks, r.kv_evicted_blocks, r.kv_demoted_blocks,
          r.kv_promoted_blocks})
        d.add(v);
    for (std::uint64_t v :
         {r.kv_capacity_bytes, r.prefix_shared_bytes, r.kv_dram_capacity_bytes,
          r.kv_demoted_bytes, r.kv_promoted_bytes, r.kv_migrated_bytes})
        d.add(v);
    d.add(r.accel_busy_s);
    d.add(r.accel_util);
    d.add(r.accel_requests);
    d.add(r.accel_names);
    d.add(r.accel_kv_capacity_bytes);
    d.add(r.kv_peak_bytes);
    d.add(r.kv_mean_bytes);
    d.add(r.kv_dram_peak_bytes);
    return d.value();
}

} // namespace perfbench
