/**
 * @file
 * Per-layer metrics shared by every workload, and the workload entry
 * points main() dispatches to.
 */
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "accel/pipeline.hpp"
#include "metrics.hpp"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

/** What one workload run measured and checked. */
struct Outcome
{
    bool correct = true;
    std::size_t attempted = 0; ///< Requests (or benchmark runs) served.
    std::size_t failed = 0;    ///< Of those, how many failed a check.
    std::size_t reps = 0;      ///< Repetitions of the workload measured.
    std::size_t host_threads = 1;
    MetricSet metrics;
};

Outcome runServeDiurnal(const RunOptions& opt);
Outcome runServePrefixTiered(const RunOptions& opt);
Outcome runPaperSuite(const RunOptions& opt);

/** Repetitions run until @p seconds have passed since @p start_s, and
 *  at least @p min_reps of them. */
bool wantAnotherRep(double start_s, double seconds, std::size_t reps,
                    std::size_t min_reps);

/**
 * Every per-layer metric at 0: the value a workload reports for a
 * layer it does not load (e.g. backend.* on paper-suite, which never
 * crosses the serving boundary).
 */
void setPerLayerDefaults(MetricSet& m);

/** accel.* stage and hbm.* metrics from the summed RunResult stats. */
void setSimLayers(MetricSet& m,
                  const std::vector<const spatten::RunResult*>& results);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
