/**
 * @file
 * Named metrics, host clocks, and the benchmark's result line.
 */
#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Metrics in insertion order; set() overwrites an existing name. */
class MetricSet
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    /** set() every metric of @p other. */
    void setAll(const MetricSet& other);
    const std::vector<Metric>& all() const { return metrics_; }
    /** Value of @p name; fatal when absent. */
    double get(const std::string& name) const;

  private:
    std::vector<Metric> metrics_;
};

/** Per-name median across @p runs (all must hold the same names). */
MetricSet medianOf(const std::vector<MetricSet>& runs);

/** Linear-interpolated quantile of an unsorted sample (0 when empty). */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/** Geometric mean (0 when empty). */
double geomean(const std::vector<double>& v);

/** Monotonic host wall clock, seconds. */
double wallSeconds();
/** CPU seconds of this process, summed over all its threads. */
double cpuSeconds();
/** Peak resident set size of this process, MiB. */
double peakRssMib();

/** The result line: the last line of stdout, one JSON object. */
void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const MetricSet& metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
