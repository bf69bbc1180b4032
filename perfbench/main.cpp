/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload (serve-diurnal, serve-prefix-tiered, paper-suite)
 * repeatedly for --seconds, checks its outputs, and prints a record
 * line followed by the result line: one JSON object with the keys
 * correct, attempted, failed and metrics. --trace 0 measures the
 * end-to-end metrics untraced; --trace 1 pairs every untraced
 * repetition with a traced one and reports the per-layer metrics.
 * Run it through perfbench/run.py, which builds it first.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "layers.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__clang__)
const char* const kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
const char* const kCompiler = "g++ " __VERSION__;
#else
const char* const kCompiler = "unknown";
#endif

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "<serve-diurnal|serve-prefix-tiered|paper-suite> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

perfbench::RunOptions
parseArgs(int argc, char** argv)
{
    perfbench::RunOptions opt;
    bool have[4] = {};
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("every flag takes a value");
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
            have[1] = *value != '\0' && *end == '\0';
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
            have[2] = *value != '\0' && *end == '\0' && opt.seconds > 0 &&
                      opt.seconds <= 120;
        } else if (flag == "--trace") {
            have[3] = std::strcmp(value, "0") == 0 ||
                      std::strcmp(value, "1") == 0;
            opt.trace = std::strcmp(value, "1") == 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds (0, 120] and --trace 0|1 "
              "are all required");
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    const perfbench::RunOptions opt = parseArgs(argc, argv);
    perfbench::Outcome out;
    if (opt.workload == "serve-diurnal")
        out = perfbench::runServeDiurnal(opt);
    else if (opt.workload == "serve-prefix-tiered")
        out = perfbench::runServePrefixTiered(opt);
    else if (opt.workload == "paper-suite")
        out = perfbench::runPaperSuite(opt);
    else
        usage(("unknown workload " + opt.workload).c_str());

    for (const perfbench::Metric& m : out.metrics.all()) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "check: metric %s is not finite\n",
                         m.name.c_str());
            out.correct = false;
        }
    }
    // Every run starts cold on purpose (fresh trace, fleet, decode memo
    // and prefix cache): each real invocation pays for them too.
    std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"seconds\": %g, \"reps\": %zu, "
                "\"host_threads\": %zu, \"nproc\": %u, \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"cold_start\": true}}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, opt.seconds, out.reps, out.host_threads,
                std::thread::hardware_concurrency(), kCompiler,
                PERFBENCH_BUILD_TYPE);
    perfbench::printResult(out.correct, out.attempted, out.failed,
                           out.metrics);
    return out.correct ? 0 : 1;
}
