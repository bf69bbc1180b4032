#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/logging.hpp"
#include "sim/stats.hpp"

namespace perfbench {

void
MetricSet::set(const std::string& name, double value,
               const std::string& unit)
{
    for (Metric& m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
MetricSet::setAll(const MetricSet& other)
{
    for (const Metric& m : other.metrics_)
        set(m.name, m.value, m.unit);
}

double
MetricSet::get(const std::string& name) const
{
    for (const Metric& m : metrics_)
        if (m.name == name)
            return m.value;
    spatten::fatal("metric '%s' was never set", name.c_str());
}

MetricSet
medianOf(const std::vector<MetricSet>& runs)
{
    MetricSet out;
    if (runs.empty())
        return out;
    for (const Metric& m : runs.front().all()) {
        std::vector<double> v;
        v.reserve(runs.size());
        for (const MetricSet& r : runs)
            v.push_back(r.get(m.name));
        out.set(m.name, median(std::move(v)), m.unit);
    }
    return out;
}

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    return spatten::sortedQuantile(v, q);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const MetricSet& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char* sep = "";
    for (const Metric& m : metrics.all()) {
        // Non-finite values are not JSON; they mark a broken metric.
        const double v = std::isfinite(m.value) ? m.value : -1.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), v, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
