#include "layers.hpp"

namespace perfbench {

namespace {

const char* const kStages[] = {"fetcher", "qk",  "softmax",
                               "topk",    "zero_eliminator", "pv"};

struct LayerMetric
{
    const char* name;
    const char* unit;
};

// The per-layer metric roster, in output order. BENCHMARK.json's
// per_layer list names exactly these plus the per-stage accel.* pairs.
const LayerMetric kLayerMetrics[] = {
    {"workload.trace_gen_s", "s"},
    {"workload.prompt_tokens", "tok"},
    {"workload.output_tokens", "tok"},
    {"serve.run_s", "s"},
    {"serve.self_s", "s"},
    {"serve.self_share", "frac"},
    {"serve.queue_delay_p50_ms", "sim_ms"},
    {"serve.queue_delay_p99_ms", "sim_ms"},
    {"serve.preemptions", "count"},
    {"serve.recompute_tokens", "tok"},
    {"serve.peak_concurrency", "count"},
    {"serve.accel_util_mean", "frac"},
    {"kv.prefix_hit_rate", "frac"},
    {"kv.cached_token_frac", "frac"},
    {"kv.evicted_blocks", "count"},
    {"kv.demoted_blocks", "count"},
    {"kv.promoted_blocks", "count"},
    {"kv.cow_copied_blocks", "count"},
    {"kv.migrated_mib", "MiB"},
    {"kv.peak_mib", "MiB"},
    {"kv.promotion_stall_ms", "sim_ms"},
    {"backend.prefill_s", "s"},
    {"backend.prefill_calls", "count"},
    {"backend.prefill_chunk_s", "s"},
    {"backend.prefill_chunk_calls", "count"},
    {"backend.ns_per_prompt_token", "ns/tok"},
    {"backend.decode_step_s", "s"},
    {"backend.decode_step_calls", "count"},
    {"backend.decode_batch_s", "s"},
    {"backend.decode_batch_calls", "count"},
    {"backend.decode_batch_lanes_mean", "lanes"},
    {"backend.decode_batch_us_p50", "us"},
    {"backend.decode_batch_us_p99", "us"},
    {"backend.decode_batch_samples", "count"},
    {"backend.ns_per_decode_token", "ns/tok"},
    {"backend.make_session_s", "s"},
    {"backend.finalize_s", "s"},
    {"backend.span_overlap_s", "s"},
    {"accel.memo_replay_frac", "frac"},
    {"accel.run_us_p50", "us"},
    {"accel.run_us_p99", "us"},
    {"accel.run_samples", "count"},
    {"accel.topk_comparisons", "count"},
    {"accel.crossbar_conflicts", "count"},
    {"hbm.bytes_read", "B"},
    {"hbm.requests", "count"},
    {"hbm.row_activations", "count"},
    {"hbm.bytes_per_activation", "B"},
    {"hbm.energy_pj", "pJ"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_frac", "frac"},
};

} // namespace

bool
wantAnotherRep(double start_s, double seconds, std::size_t reps,
               std::size_t min_reps)
{
    return reps < min_reps || wallSeconds() - start_s < seconds;
}

void
setPerLayerDefaults(MetricSet& m)
{
    for (const LayerMetric& lm : kLayerMetrics)
        m.set(lm.name, 0.0, lm.unit);
    for (const char* stage : kStages) {
        m.set(std::string("accel.") + stage + ".busy_cycles", 0.0,
              "cycles");
        m.set(std::string("accel.") + stage + ".energy_pj", 0.0, "pJ");
    }
}

void
setSimLayers(MetricSet& m,
             const std::vector<const spatten::RunResult*>& results)
{
    // Sum each entry by hand: StatSet::merge would keep only the last
    // result's value of gauge entries such as crossbar.conflicts.
    const auto sum = [&](const std::string& key) {
        double s = 0.0;
        for (const spatten::RunResult* r : results)
            s += r->stats.get(key);
        return s;
    };
    for (const char* stage : kStages) {
        const std::string p = std::string("stage.") + stage;
        m.set(std::string("accel.") + stage + ".busy_cycles",
              sum(p + ".busy_cycles"), "cycles");
        m.set(std::string("accel.") + stage + ".energy_pj",
              sum(p + ".energy_pj"), "pJ");
    }
    m.set("accel.topk_comparisons", sum("activity.topk_comparisons"),
          "count");
    m.set("accel.crossbar_conflicts", sum("crossbar.conflicts"), "count");
    const double bytes = sum("hbm.bytes_read") + sum("hbm.bytes_written");
    const double acts = sum("hbm.row_activations");
    m.set("hbm.bytes_read", sum("hbm.bytes_read"), "B");
    m.set("hbm.requests", sum("hbm.requests"), "count");
    m.set("hbm.row_activations", acts, "count");
    m.set("hbm.bytes_per_activation", acts > 0 ? bytes / acts : 0.0, "B");
    m.set("hbm.energy_pj", sum("hbm.energy_pj"), "pJ");
}

} // namespace perfbench
