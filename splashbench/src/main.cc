/**
 * @file
 * splashbench: run one benchmark workload and print its metrics.
 *
 *   splashbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--out DIR] [--golden DIR] [--write-golden]
 *
 * Workloads: sim-fig1, native-suite, isolated-campaign (README.md).
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics untraced, the
 * per-layer metrics with --trace 1.  A traced run also writes a Chrome
 * trace and a per-layer JSON into --out.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "bench.h"
#include "harness/suite.h"

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "splashbench: %s\nusage: splashbench --workload "
                 "sim-fig1|native-suite|isolated-campaign --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--golden DIR] "
                 "[--write-golden]\n",
                 why);
    std::exit(2);
}

std::string
detailJson(const std::string& workload, const splashbench::Options& options,
           const splashbench::Report& report)
{
    std::ostringstream os;
    os << "{\"detail\": {\"workload\": \"" << workload
       << "\", \"seed\": " << options.seed
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"percentile_samples\": {";
    bool first = true;
    for (const auto& [name, counts] : report.percentileSamples) {
        os << (first ? "" : ", ") << '"' << name
           << "\": {\"samples\": " << counts.first
           << ", \"above\": " << counts.second << '}';
        first = false;
    }
    os << "}, \"series\": {";
    first = true;
    for (const auto& [name, values] : report.series) {
        os << (first ? "" : ", ") << '"' << name << "\": [";
        for (std::size_t i = 0; i < values.size(); ++i)
            os << (i ? ", " : "") << values[i];
        os << ']';
        first = false;
    }
    os << "}}}";
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace splashbench;
    const double start = now();
    Options options;
    std::string probe, store;
    options.outDir = ".bench_build/splashbench/out";
    options.goldenDir = "splashbench/golden";
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
            haveWorkload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            options.trace = value() == "1";
        } else if (arg == "--out") {
            options.outDir = value();
        } else if (arg == "--golden") {
            options.goldenDir = value();
        } else if (arg == "--write-golden") {
            options.writeGolden = true;
        } else if (arg == "--probe") {
            probe = value();
        } else if (arg == "--store") {
            store = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (options.workload != "sim-fig1" && options.workload != "native-suite" &&
        options.workload != "isolated-campaign")
        usage(("unknown workload " + options.workload).c_str());
    if (options.seconds <= 0)
        usage("--seconds must be positive");
    if (options.writeGolden && options.seed != kGoldenSeed)
        usage("--write-golden needs the golden seed (--seed 1)");

    std::filesystem::create_directories(options.outDir);
    splash::registerAllBenchmarks();
    if (!probe.empty()) {
        // A probe process (runProbes): one set-up from process start,
        // or the median of its resume passes.
        if (probe != "setup" && probe != "resume")
            usage("--probe must be setup or resume");
        const double value =
            options.workload == "isolated-campaign"
                ? isolatedProbe(options, probe, store)
                : inProcessProbe(options, probe, store);
        std::printf("%.17g\n", probe == "setup" ? now() - start : value);
        return 0;
    }
    Report report;
    if (options.workload == "sim-fig1")
        report = runSimFig1(options);
    else if (options.workload == "native-suite")
        report = runNativeSuite(options);
    else
        report = runIsolatedCampaign(options);

    if (options.trace) {
        const auto self = report.tracer.selfSeconds();
        for (const auto& name : selfTimeSpans()) {
            auto it = self.find(name);
            report.layers.set("self_s." + name,
                              it == self.end() ? 0.0 : it->second, "s");
        }
        const std::string stem = options.outDir + "/" + options.workload +
                                 "-seed" + std::to_string(options.seed);
        writeFile(stem + ".trace.json", report.tracer.chromeTrace());
        writeFile(stem + ".layers.json", report.layers.json() + "\n");
        std::printf("splashbench: trace %s.trace.json, layers "
                    "%s.layers.json\n",
                    stem.c_str(), stem.c_str());
    }
    std::printf("%s\n", detailJson(options.workload, options, report).c_str());
    const Metrics& metrics = options.trace ? report.layers : report.endToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                report.correct ? "true" : "false", report.attempted,
                report.failed, metrics.json().c_str());
    return 0;
}
