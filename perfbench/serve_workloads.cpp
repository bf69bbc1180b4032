/**
 * @file
 * The two serving workloads: a trace served end to end by a
 * ContinuousBatchScheduler over SpAtten fleet slots, driven only
 * through the public workload / serve / accel API.
 *
 * Every repetition starts cold on purpose: the trace, the fleet, every
 * session's decode memo and every KvPool's prefix cache are rebuilt,
 * because each real invocation of the simulator pays for them too.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "accel/spatten_accelerator.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "traced_backend.hpp"
#include "workload/arrival_trace.hpp"

namespace perfbench {

namespace {

using spatten::ContinuousBatchConfig;
using spatten::ServeReport;
using spatten::TracedRequest;

constexpr std::size_t kMinReps = 2;
constexpr double kMiB = 1024.0 * 1024.0;

struct ServeWorkload
{
    /// Independent traces a run serves per repetition. Every metric is
    /// a median over them: one trace's tail latencies swing with its
    /// few largest bursts, and the median over independent traces does
    /// not.
    std::size_t sub_traces;
    std::size_t slots;
    std::size_t host_threads;
    std::vector<TracedRequest> (*make_trace)(std::uint64_t seed);
    ContinuousBatchConfig (*make_config)(
        const std::vector<TracedRequest>& trace);
};

// ---- serve-diurnal: day/night demand on a 4-slot SpAtten fleet, FIFO,
// unbounded KV, no prompt content, one host thread. Its host time goes
// to the backend prefill path, per-request and batched decode and the
// decode memo; the KvPool does almost no work. The mean offered load
// is ~80% of the fleet's capacity, so the peak builds a backlog that
// the night drains and simulated TTFT responds to queueing.
std::vector<TracedRequest>
diurnalTrace(std::uint64_t seed)
{
    spatten::DiurnalTraceConfig c;
    c.base.num_requests = 5000;
    c.base.mean_interarrival_s = 100e-6;
    c.base.seed = seed;
    c.base.min_prompt = 64;
    c.base.max_prompt = 256;
    c.base.min_output = 4;
    c.base.max_output = 16;
    // 0.5 simulated seconds of demand: two whole days, so every trace
    // starts and ends in the night trough. Ending mid-peak made each
    // trace's TTFT hinge on how much of its last peak it caught.
    c.day_s = 0.25;
    c.amplitude = 0.8;
    return spatten::generateDiurnalTrace(c);
}

ContinuousBatchConfig
diurnalConfig(const std::vector<TracedRequest>& /*trace*/)
{
    ContinuousBatchConfig sc;
    sc.max_active = 16;
    sc.slo_ttft_s = 25e-3;
    sc.slo_itl_s = 2e-3;
    sc.num_threads = 1;
    return sc;
}

// ---- serve-prefix-tiered: multi-turn shared-prefix demand in bursts
// with 3 priority levels on 2 slots. It drives the KvPool write paths
// (reserve, resize, COW under cascade pruning, demote/promote through
// the DRAM tier, evict, and preempt, which cascade pruning keeps rare,
// under a budget near 1.5x the worst request) and mixed prefill+decode
// iterations through the StepPool. Bursts are short and frequent (~3
// requests each, half the fleet's capacity on average): long bursts
// made every tail metric hinge on a trace's few largest bursts.
//
// One host thread: at 2 threads the wall time of a run was no shorter
// and swung with how the host scheduled the helper thread (wall_s
// spread 28% over ten seeds against 7% for CPU time per token).
std::vector<TracedRequest>
prefixTrace(std::uint64_t seed)
{
    spatten::SharedPrefixTraceConfig c;
    c.base.num_requests = 1500;
    c.base.seed = seed;
    c.base.process = spatten::ArrivalProcess::OnOffBurst;
    c.base.mean_interarrival_s = 0.2e-3;
    c.base.burst_on_mean_s = 0.4e-3;
    c.base.burst_off_mean_s = 0.8e-3;
    c.base.priority_levels = 3;
    c.base.min_output = 16;
    c.base.max_output = 32;
    c.num_system_prompts = 8;
    c.system_prompt_tokens = 192;
    c.followup_prob = 0.5;
    return spatten::generateSharedPrefixTrace(c);
}

ContinuousBatchConfig
prefixConfig(const std::vector<TracedRequest>& trace)
{
    ContinuousBatchConfig sc;
    sc.max_active = 16;
    sc.queue = spatten::QueuePolicy::Priority;
    sc.slo_ttft_s = 25e-3;
    sc.slo_itl_s = 2e-3;
    sc.enable_prefix_caching = true;
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    sc.prefill_chunk_tokens = 128;
    sc.iteration_token_budget = 512;
    sc.admission_skip_ahead = 4;
    sc.num_threads = 1;
    sc.kv_capacity_bytes = spatten::kvBudgetForWorstRequest(trace, 1.5, sc);
    return sc;
}

const ServeWorkload kDiurnal{4, 4, 1, diurnalTrace, diurnalConfig};
const ServeWorkload kPrefixTiered{8, 2, 1, prefixTrace, prefixConfig};

struct ServeSetup
{
    std::vector<TracedRequest> trace;
    ContinuousBatchConfig sched;
    spatten::AcceleratorFleet fleet;
    double trace_gen_s = 0;
    double setup_s = 0;
};

ServeSetup
setUp(const ServeWorkload& w, std::uint64_t seed, std::size_t sub_trace)
{
    ServeSetup s;
    const double t0 = wallSeconds();
    // Sub-trace seeds are a mix of the run's seed, so neighbouring
    // seeds and sub-traces give unrelated traces.
    s.trace = w.make_trace(
        spatten::mix64(seed ^ spatten::mix64(0x7ace5eedULL + sub_trace)));
    s.trace_gen_s = wallSeconds() - t0;
    s.sched = w.make_config(s.trace);
    for (std::size_t i = 0; i < w.slots; ++i)
        s.fleet.push_back(std::make_shared<spatten::SpAttenAccelerator>());
    s.setup_s = wallSeconds() - t0;
    return s;
}

void
setSpanLayers(MetricSet& m, std::vector<Span> spans, std::int64_t run0_ns,
              std::int64_t run1_ns, std::size_t memo_replays)
{
    double secs[kNumSpanKinds] = {};
    std::size_t calls[kNumSpanKinds] = {};
    std::size_t work[kNumSpanKinds] = {};
    std::vector<double> batch_us;
    for (const Span& s : spans) {
        const auto k = static_cast<std::size_t>(s.kind);
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        secs[k] += d * 1e-9;
        ++calls[k];
        work[k] += s.work;
        if (s.kind == SpanKind::DecodeBatch)
            batch_us.push_back(d * 1e-3);
    }
    // Union of the spans inside run(): spans from StepPool helpers may
    // overlap the coordinator's, so their sum can exceed the wall time.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        return a.start_ns < b.start_ns;
    });
    std::int64_t covered = 0;
    std::int64_t reach = run0_ns;
    for (const Span& s : spans) {
        const std::int64_t lo = std::max(s.start_ns, reach);
        const std::int64_t hi = std::min(s.end_ns, run1_ns);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    const double run_s = static_cast<double>(run1_ns - run0_ns) * 1e-9;
    const double union_s = static_cast<double>(covered) * 1e-9;
    double sum_s = 0.0;
    for (double s : secs)
        sum_s += s;
    const auto at = [](SpanKind k) { return static_cast<std::size_t>(k); };
    const double prompt_s =
        secs[at(SpanKind::Prefill)] + secs[at(SpanKind::PrefillChunk)];
    const auto prompt_tok = static_cast<double>(
        work[at(SpanKind::Prefill)] + work[at(SpanKind::PrefillChunk)]);
    const double decode_s =
        secs[at(SpanKind::DecodeStep)] + secs[at(SpanKind::DecodeBatch)];
    const auto decode_tok = static_cast<double>(
        calls[at(SpanKind::DecodeStep)] + work[at(SpanKind::DecodeBatch)]);
    const auto batch_calls =
        static_cast<double>(calls[at(SpanKind::DecodeBatch)]);

    m.set("serve.run_s", run_s, "s");
    m.set("serve.self_s", run_s - union_s, "s");
    m.set("serve.self_share", (run_s - union_s) / run_s, "frac");
    m.set("backend.span_overlap_s", sum_s - union_s, "s");
    m.set("backend.prefill_s", secs[at(SpanKind::Prefill)], "s");
    m.set("backend.prefill_calls",
          static_cast<double>(calls[at(SpanKind::Prefill)]), "count");
    m.set("backend.prefill_chunk_s", secs[at(SpanKind::PrefillChunk)], "s");
    m.set("backend.prefill_chunk_calls",
          static_cast<double>(calls[at(SpanKind::PrefillChunk)]), "count");
    m.set("backend.ns_per_prompt_token",
          prompt_tok > 0 ? prompt_s * 1e9 / prompt_tok : 0.0, "ns/tok");
    m.set("backend.decode_step_s", secs[at(SpanKind::DecodeStep)], "s");
    m.set("backend.decode_step_calls",
          static_cast<double>(calls[at(SpanKind::DecodeStep)]), "count");
    m.set("backend.decode_batch_s", secs[at(SpanKind::DecodeBatch)], "s");
    m.set("backend.decode_batch_calls", batch_calls, "count");
    m.set("backend.decode_batch_lanes_mean",
          batch_calls > 0 ? static_cast<double>(
                                work[at(SpanKind::DecodeBatch)]) /
                                batch_calls
                          : 0.0,
          "lanes");
    m.set("backend.decode_batch_us_p50", quantile(batch_us, 0.5), "us");
    m.set("backend.decode_batch_us_p99", quantile(batch_us, 0.99), "us");
    m.set("backend.decode_batch_samples", batch_calls, "count");
    m.set("backend.ns_per_decode_token",
          decode_tok > 0 ? decode_s * 1e9 / decode_tok : 0.0, "ns/tok");
    m.set("backend.make_session_s", secs[at(SpanKind::MakeSession)], "s");
    m.set("backend.finalize_s", secs[at(SpanKind::Finalize)], "s");
    m.set("accel.memo_replay_frac",
          decode_tok > 0 ? static_cast<double>(memo_replays) / decode_tok
                         : 0.0,
          "frac");
}

void
setServeSimLayers(MetricSet& m, const std::vector<TracedRequest>& trace,
                  const ServeReport& r)
{
    double prompt_tokens = 0.0;
    double output_tokens = 0.0;
    for (const TracedRequest& t : trace) {
        prompt_tokens += static_cast<double>(t.workload.summarize_len);
        output_tokens += static_cast<double>(t.workload.generate_len);
    }
    double util = 0.0;
    for (double u : r.accel_util)
        util += u;
    std::uint64_t kv_peak = 0;
    for (std::uint64_t b : r.kv_peak_bytes)
        kv_peak = std::max(kv_peak, b);
    // Every preemption re-admits its request once more.
    const auto admissions =
        static_cast<double>(trace.size() + r.preemptions);
    std::vector<const spatten::RunResult*> results;
    results.reserve(r.requests.size());
    for (const spatten::ServedRequest& q : r.requests)
        results.push_back(&q.sim);

    m.set("workload.prompt_tokens", prompt_tokens, "tok");
    m.set("workload.output_tokens", output_tokens, "tok");
    m.set("serve.queue_delay_p50_ms", r.queue_delay_p50_s * 1e3, "sim_ms");
    m.set("serve.queue_delay_p99_ms", r.queue_delay_p99_s * 1e3, "sim_ms");
    m.set("serve.preemptions", static_cast<double>(r.preemptions), "count");
    m.set("serve.recompute_tokens", static_cast<double>(r.recompute_tokens),
          "tok");
    m.set("serve.peak_concurrency", static_cast<double>(r.peak_concurrency),
          "count");
    m.set("serve.accel_util_mean",
          util / static_cast<double>(r.accel_util.size()), "frac");
    m.set("kv.prefix_hit_rate",
          static_cast<double>(r.prefix_cache_hits) / admissions, "frac");
    m.set("kv.cached_token_frac",
          static_cast<double>(r.prefix_cached_tokens) / prompt_tokens,
          "frac");
    m.set("kv.evicted_blocks", static_cast<double>(r.kv_evicted_blocks),
          "count");
    m.set("kv.demoted_blocks", static_cast<double>(r.kv_demoted_blocks),
          "count");
    m.set("kv.promoted_blocks", static_cast<double>(r.kv_promoted_blocks),
          "count");
    m.set("kv.cow_copied_blocks", static_cast<double>(r.cow_copied_blocks),
          "count");
    m.set("kv.migrated_mib", static_cast<double>(r.kv_migrated_bytes) / kMiB,
          "MiB");
    m.set("kv.peak_mib", static_cast<double>(kv_peak) / kMiB, "MiB");
    m.set("kv.promotion_stall_ms", r.promotion_stall_s * 1e3, "sim_ms");
    setSimLayers(m, results);
}

void
setServeEndToEnd(MetricSet& m, const ServeReport& r)
{
    double busy_s = 0.0;
    for (double b : r.accel_busy_s)
        busy_s += b;
    m.set("sim_ttft_p50_ms", r.ttft_p50_s * 1e3, "sim_ms");
    m.set("sim_ttft_p99_ms", r.ttft_p99_s * 1e3, "sim_ms");
    m.set("sim_itl_p99_us", r.itl_p99_s * 1e6, "sim_us");
    m.set("sim_goodput_rps", r.goodput_rps, "req/sim_s");
    m.set("sim_tflops", busy_s > 0 ? r.total_flops / busy_s * 1e-12 : 0.0,
          "TFLOPS");
    m.set("sim_energy_mj", r.total_energy_j * 1e3, "mJ");
    m.set("sim_dram_reduction", r.dram_reduction, "x");
}

Outcome
runServe(const ServeWorkload& w, const RunOptions& opt)
{
    Outcome out;
    out.host_threads = w.host_threads;
    std::vector<double> setup_s, trace_gen_s, wall_s, tok_per_cpu_s,
        traced_wall_s;
    std::vector<MetricSet> traced_layers;
    // Per sub-trace: the first report's digest, and its simulated
    // metrics (end-to-end or per-layer, as the run reports).
    std::vector<std::optional<std::uint64_t>> digests(w.sub_traces);
    std::vector<MetricSet> sim(w.sub_traces);

    // Checks every report: serving invariants, and bit-identity with
    // the first report of the same sub-trace.
    const auto check = [&](std::size_t k, const ServeSetup& s,
                           const ServeReport& r, const char* what) {
        out.attempted += s.trace.size();
        out.failed += countBadRequests(s.trace, r);
        const std::uint64_t d = reportDigest(r);
        if (!digests[k]) {
            digests[k] = d;
            if (opt.trace)
                setServeSimLayers(sim[k], s.trace, r);
            else
                setServeEndToEnd(sim[k], r);
        } else if (*digests[k] != d) {
            out.correct = false;
            std::fprintf(stderr,
                         "check: %s report of sub-trace %zu differs from "
                         "its first report\n",
                         what, k);
        }
    };
    const auto untraced = [&](std::size_t k, const ServeSetup& s) {
        double tokens = 0.0;
        for (const TracedRequest& t : s.trace)
            tokens += static_cast<double>(t.workload.summarize_len +
                                          t.workload.generate_len);
        spatten::ContinuousBatchScheduler sched(s.fleet, s.sched);
        const double c0 = cpuSeconds();
        const double w0 = wallSeconds();
        const ServeReport r = sched.run(s.trace);
        const double w1 = wallSeconds();
        const double c1 = cpuSeconds();
        wall_s.push_back(w1 - w0);
        tok_per_cpu_s.push_back(tokens / (c1 - c0));
        check(k, s, r, "repeated");
    };
    const auto traced = [&](std::size_t k, const ServeSetup& s) {
        SpanRecorder rec;
        spatten::ContinuousBatchScheduler sched(traceFleet(s.fleet, rec),
                                                s.sched);
        const std::int64_t t0 = nowNs();
        const ServeReport r = sched.run(s.trace);
        const std::int64_t t1 = nowNs();
        traced_wall_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        check(k, s, r, "traced");
        MetricSet lm;
        setSpanLayers(lm, rec.spans(), t0, t1, rec.memoReplays());
        traced_layers.push_back(lm);
    };

    const double start = wallSeconds();
    for (std::size_t rep = 0;
         wantAnotherRep(start, opt.seconds, rep, kMinReps); ++rep) {
        for (std::size_t k = 0; k < w.sub_traces; ++k) {
            const ServeSetup s = setUp(w, opt.seed, k);
            setup_s.push_back(s.setup_s);
            trace_gen_s.push_back(s.trace_gen_s);
            // Traced runs alternate which side of the pair goes first,
            // so neither side always runs on a warmer machine.
            if (opt.trace && rep % 2 == 1)
                traced(k, s);
            untraced(k, s);
            if (opt.trace && rep % 2 == 0)
                traced(k, s);
        }
        out.reps = rep + 1;
    }
    out.correct = out.correct && out.failed == 0;

    MetricSet& m = out.metrics;
    if (!opt.trace) {
        m.set("wall_s", median(wall_s), "s");
        m.set("sim_tok_per_cpu_s", median(tok_per_cpu_s), "tok/cpu_s");
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mib", peakRssMib(), "MiB");
        m.setAll(medianOf(sim));
        return out;
    }
    setPerLayerDefaults(m);
    m.setAll(medianOf(traced_layers));
    m.setAll(medianOf(sim));
    m.set("workload.trace_gen_s", median(trace_gen_s), "s");
    const double plain = median(wall_s);
    const double with_spans = median(traced_wall_s);
    m.set("trace.untraced_wall_s", plain, "s");
    m.set("trace.traced_wall_s", with_spans, "s");
    m.set("trace.overhead_s", with_spans - plain, "s");
    m.set("trace.overhead_frac", (with_spans - plain) / plain, "frac");
    return out;
}

} // namespace

Outcome
runServeDiurnal(const RunOptions& opt)
{
    return runServe(kDiurnal, opt);
}

Outcome
runServePrefixTiered(const RunOptions& opt)
{
    return runServe(kPrefixTiered, opt);
}

} // namespace perfbench
