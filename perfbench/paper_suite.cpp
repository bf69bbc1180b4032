/**
 * @file
 * The paper-suite workload: the 30 paperBenchmarks() (22 BERT, 8 GPT-2)
 * repeated with distinct request seeds through
 * SpAttenAccelerator::runBatch at one host thread. It loads the
 * whole-sequence prefill path through all six stages and HBM on long
 * BERT contexts, and bypasses the scheduler and the KV pool. Its
 * simulated numbers are the paper-fidelity figures.
 */
#include <cstdio>
#include <memory>

#include "accel/spatten_accelerator.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "serve/batch_runner.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMinReps = 3;
/// Copies of the 30 benchmarks in one batch.
constexpr std::size_t kCopies = 8;

/// The seed BatchRunner hands request @p index (its splitmix64 mix of
/// the request's seed and queue position), so a serial run() of that
/// request reproduces the batch's call exactly.
std::uint64_t
batchRequestSeed(std::uint64_t seed, std::size_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

struct SuiteSetup
{
    std::vector<spatten::BatchRequest> batch;
    std::size_t suite_size = 0; ///< Benchmarks in one copy.
    std::unique_ptr<spatten::SpAttenAccelerator> accel;
    double trace_gen_s = 0;
    double setup_s = 0;
};

SuiteSetup
setUp(std::uint64_t seed)
{
    SuiteSetup s;
    const double t0 = wallSeconds();
    const std::vector<spatten::BenchmarkSpec> suite =
        spatten::paperBenchmarks();
    s.suite_size = suite.size();
    for (std::size_t c = 0; c < kCopies; ++c)
        for (const spatten::BenchmarkSpec& b : suite)
            s.batch.push_back(
                {b.workload, b.policy,
                 spatten::mix64(seed ^ (0xbe7c0000ULL + s.batch.size()))});
    s.trace_gen_s = wallSeconds() - t0;
    s.accel = std::make_unique<spatten::SpAttenAccelerator>();
    s.setup_s = wallSeconds() - t0;
    return s;
}

void
setSuiteEndToEnd(MetricSet& m, const SuiteSetup& s,
                 const spatten::BatchResult& r)
{
    // A batch request delivers its output whole, so its first output
    // arrives at its simulated latency. Inter-token gaps exist only on
    // the GPT-2 requests: each of their generate_len tokens takes the
    // request's mean generation time per token.
    std::vector<double> gaps_us;
    double energy_j = 0.0;
    std::vector<double> reductions;
    for (std::size_t i = 0; i < r.results.size(); ++i) {
        const spatten::RunResult& res = r.results[i];
        const std::size_t gen = s.batch[i].workload.generate_len;
        if (gen > 0)
            gaps_us.insert(gaps_us.end(), gen,
                           res.generate_seconds / static_cast<double>(gen) *
                               1e6);
        energy_j += res.energy.totalJ();
        if (i < s.suite_size)
            reductions.push_back(res.dramReduction());
    }
    m.set("sim_ttft_p50_ms", r.p50_seconds * 1e3, "sim_ms");
    m.set("sim_ttft_p99_ms", r.p99_seconds * 1e3, "sim_ms");
    m.set("sim_itl_p99_us", quantile(gaps_us, 0.99), "sim_us");
    m.set("sim_goodput_rps", r.throughputRps(), "req/sim_s");
    m.set("sim_tflops", r.aggregate_tflops, "TFLOPS");
    m.set("sim_energy_mj", energy_j * 1e3, "mJ");
    m.set("sim_dram_reduction", geomean(reductions), "x");
}

std::size_t
countBadResults(const spatten::BatchResult& r, std::size_t want)
{
    if (r.results.size() != want)
        return want;
    std::size_t bad = 0;
    for (const spatten::RunResult& res : r.results)
        if (!(res.seconds > 0 && res.dram_bytes > 0 &&
              res.attention_flops > 0))
            ++bad;
    return bad;
}

} // namespace

Outcome
runPaperSuite(const RunOptions& opt)
{
    Outcome out;
    std::vector<double> setup_s, trace_gen_s, wall_s, tok_per_cpu_s,
        traced_wall_s, run_us;
    std::unique_ptr<spatten::BatchResult> reference;
    std::vector<std::uint64_t> digests; // Of reference's results.
    SuiteSetup last;

    const double start = wallSeconds();
    for (std::size_t rep = 0;
         wantAnotherRep(start, opt.seconds, rep, kMinReps); ++rep) {
        SuiteSetup s = setUp(opt.seed);
        setup_s.push_back(s.setup_s);
        trace_gen_s.push_back(s.trace_gen_s);
        double tokens = 0.0;
        for (const spatten::BatchRequest& q : s.batch)
            tokens += static_cast<double>(q.workload.summarize_len +
                                          q.workload.generate_len);

        const double c0 = cpuSeconds();
        const double w0 = wallSeconds();
        spatten::BatchResult r = s.accel->runBatch(s.batch, 1);
        const double w1 = wallSeconds();
        const double c1 = cpuSeconds();
        wall_s.push_back(w1 - w0);
        tok_per_cpu_s.push_back(tokens / (c1 - c0));
        out.attempted += s.batch.size();
        out.failed += countBadResults(r, s.batch.size());
        std::vector<std::uint64_t> d;
        for (const spatten::RunResult& res : r.results)
            d.push_back(resultDigest(res));
        if (!reference) {
            reference = std::make_unique<spatten::BatchResult>(std::move(r));
            digests = std::move(d);
        } else if (d != digests || r.p50_seconds != reference->p50_seconds ||
                   r.p99_seconds != reference->p99_seconds ||
                   r.aggregate_tflops != reference->aggregate_tflops ||
                   r.dram_reduction != reference->dram_reduction) {
            out.correct = false;
            std::fprintf(stderr, "check: repeated runBatch differs\n");
        }

        if (opt.trace) {
            // The traced side: each benchmark through the serial run()
            // facade, timed one call at a time, and checked against
            // the batch's result for the same request.
            const double t0 = wallSeconds();
            for (std::size_t i = 0; i < s.batch.size(); ++i) {
                const spatten::BatchRequest& q = s.batch[i];
                const double c_start = wallSeconds();
                const spatten::RunResult res = s.accel->run(
                    q.workload, q.policy, batchRequestSeed(q.seed, i));
                run_us.push_back((wallSeconds() - c_start) * 1e6);
                out.attempted += 1;
                if (i >= digests.size() || resultDigest(res) != digests[i]) {
                    ++out.failed;
                    std::fprintf(stderr,
                                 "check: serial run() of request %zu (%s) "
                                 "differs from runBatch\n",
                                 i, q.workload.name.c_str());
                }
            }
            traced_wall_s.push_back(wallSeconds() - t0);
        }
        out.reps = rep + 1;
        last = std::move(s);
    }
    out.correct = out.correct && out.failed == 0;

    MetricSet& m = out.metrics;
    if (!opt.trace) {
        m.set("wall_s", median(wall_s), "s");
        m.set("sim_tok_per_cpu_s", median(tok_per_cpu_s), "tok/cpu_s");
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mib", peakRssMib(), "MiB");
        setSuiteEndToEnd(m, last, *reference);
        return out;
    }
    setPerLayerDefaults(m);
    double prompt_tokens = 0.0;
    double output_tokens = 0.0;
    for (const spatten::BatchRequest& q : last.batch) {
        prompt_tokens += static_cast<double>(q.workload.summarize_len);
        output_tokens += static_cast<double>(q.workload.generate_len);
    }
    m.set("workload.trace_gen_s", median(trace_gen_s), "s");
    m.set("workload.prompt_tokens", prompt_tokens, "tok");
    m.set("workload.output_tokens", output_tokens, "tok");
    m.set("accel.run_us_p50", quantile(run_us, 0.5), "us");
    m.set("accel.run_us_p99", quantile(run_us, 0.99), "us");
    m.set("accel.run_samples", static_cast<double>(run_us.size()), "count");
    std::vector<const spatten::RunResult*> results;
    for (const spatten::RunResult& res : reference->results)
        results.push_back(&res);
    setSimLayers(m, results);
    const double plain = median(wall_s);
    const double serial = median(traced_wall_s);
    m.set("trace.untraced_wall_s", plain, "s");
    m.set("trace.traced_wall_s", serial, "s");
    m.set("trace.overhead_s", serial - plain, "s");
    m.set("trace.overhead_frac", (serial - plain) / plain, "frac");
    return out;
}

} // namespace perfbench
