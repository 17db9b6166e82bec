#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sstream>
#include <thread>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "harness/presets.h"
#include "util/json.h"
#include "util/log.h"

namespace splashbench {

double
now()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    char buf[64];
    for (const auto& [name, entry] : values_) {
        // %.17g keeps every digit the measurement has.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(entry.first) ? entry.first : 0.0);
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << entry.second << "\"}";
        first = false;
    }
    os << '}';
    return os.str();
}

const std::vector<std::pair<std::string, std::string>>&
layerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        [] {
            std::vector<std::pair<std::string, std::string>> v = {
                {"core.setup_s", "s"},
                {"core.verify_s", "s"},
                {"util.machine_load_ms", "ms"},
                {"sim.engine_s.splash3", "s"},
                {"sim.engine_s.splash4", "s"},
                {"sim.host_ns_per_sync_op.splash3", "ns"},
                {"sim.host_ns_per_sync_op.splash4", "ns"},
                {"sim.host_ns_per_sync_op.t1", "ns"},
                {"sim.sync_ops", "count"},
                {"sim.line_transfers", "count"},
                {"native.engine_s.splash3", "s"},
                {"native.engine_s.splash4", "s"},
                {"native.roi_s.splash3", "s"},
                {"native.roi_s.splash4", "s"},
                {"native.spawn_join_s", "s"},
                {"sync.wait_frac.splash3", "ratio"},
                {"sync.wait_frac.splash4", "ratio"},
                {"sync.retry_ratio.splash4", "ratio"},
                {"sync.ops.splash3", "count"},
                {"sync.ops.splash4", "count"},
                {"harness.isolate_overhead_s.p50", "s"},
                {"harness.store_append_ms.p50", "ms"},
                {"harness.store_load_s", "s"},
                {"harness.store_records", "count"},
                {"harness.retries", "count"},
                {"harness.forks", "count"},
                {"trace.overhead_s", "s"},
            };
            for (const auto& name : splash::suiteOrder()) {
                v.emplace_back("sim.engine_s." + name, "s");
                v.emplace_back("native.roi_s." + name, "s");
            }
            for (const auto& span : selfTimeSpans())
                v.emplace_back("self_s." + span, "s");
            return v;
        }();
    return names;
}

void
initLayers(Metrics& layers)
{
    for (const auto& [name, unit] : layerCatalogue())
        layers.set(name, 0.0, unit);
}

const std::vector<std::string>&
selfTimeSpans()
{
    static const std::vector<std::string> spans = {
        "workload",         "setup_round",       "util.machine_load",
        "plan_build",       "core.setup",        "store.open",
        "campaign",         "job",               "engine.run",
        "core.verify",      "store.append",      "resume",
        "store.load",       "scheduler.runPlan", "probe",
        "executor.attempt", "executor.inproc",   "profile_pass",
    };
    return spans;
}

std::uint64_t
syncOps(const splash::ThreadStats& stats)
{
    return stats.barrierCrossings + stats.lockAcquires + stats.atomicOps();
}

std::string
modeledDigest(const splash::JobSpec& job, const splash::RunResult& result)
{
    const splash::ThreadStats& t = result.totals;
    std::ostringstream os;
    os << job.benchmark << ' ' << splash::toString(job.config.suite)
       << " rep" << job.repetition << ": cycles=" << result.simCycles
       << " transfers=" << result.lineTransfers << " scopes=";
    for (std::size_t s = 0; s < result.transfersByScope.size(); ++s)
        os << (s ? "," : "") << result.transfersByScope[s];
    os << " barrier=" << t.barrierCrossings << " lock=" << t.lockAcquires
       << " ticket=" << t.ticketOps << " sum=" << t.sumOps
       << " stack=" << t.stackOps << " flag=" << t.flagOps
       << " work=" << t.workUnits;
    return os.str();
}

ModeledCheck::ModeledCheck(const Options& options, const std::string& workload)
    : golden_(options.seed == kGoldenSeed), writeGolden_(options.writeGolden)
{
    if (golden_)
        path_ = options.goldenDir + "/" + workload + ".json";
    else
        path_ = options.outDir + "/modeled/" + workload + "-seed" +
                std::to_string(options.seed) + ".json";
    if (writeGolden_)
        return;

    std::ifstream in(path_);
    if (!in)
        return;
    std::ostringstream text;
    text << in.rdbuf();
    splash::json::Value doc;
    std::string error;
    const splash::json::Value* jobs = nullptr;
    if (!splash::json::parse(text.str(), doc, error) ||
        !(jobs = doc.find("jobs")) || !jobs->isObject())
        splash::fatal("modeled-output reference " + path_ +
                      " is malformed: " + error);
    for (const auto& [id, digest] : jobs->members()) {
        if (digest.isString())
            reference_[id] = digest.asString();
    }
    frozen_ = true;
}

bool
ModeledCheck::check(const std::string& jobId, const std::string& digest)
{
    bool ok = true;
    auto seen = seen_.find(jobId);
    if (seen != seen_.end()) {
        ok = seen->second == digest;
    } else {
        seen_[jobId] = digest;
        if (!writeGolden_) {
            auto ref = reference_.find(jobId);
            // At the golden seed a job missing from the golden is a
            // mismatch too: the golden covers every sim job.
            if (frozen_ || golden_)
                ok = ref != reference_.end() && ref->second == digest;
        }
    }
    if (!ok) {
        ++mismatches_;
        splash::warn("modeled output of job " + jobId +
                     " differs from " + path_ + ": " + digest);
    }
    return ok;
}

void
ModeledCheck::save() const
{
    // The golden is written only on request; a seed's digests only
    // by the first run that sees that seed.
    if (seen_.empty() || (!writeGolden_ && (golden_ || frozen_)))
        return;
    std::ostringstream os;
    os << "{\n  \"schema\": \"splashbench-modeled-v1\",\n  \"jobs\": {";
    bool first = true;
    for (const auto& [id, digest] : seen_) {
        os << (first ? "\n" : ",\n") << "    \"" << id << "\": \""
           << splash::json::escape(digest) << '"';
        first = false;
    }
    os << "\n  }\n}\n";
    writeFile(path_, os.str());
}

bool
anotherCampaign(int done, int minimum, double elapsed, double last,
                double seconds)
{
    return done < minimum || elapsed + last <= seconds;
}

RoiSummary
summarizeRoi(const std::vector<std::vector<double>>& roi,
             const std::vector<std::vector<double>>& ops)
{
    RoiSummary summary;
    double totalOps = 0;
    std::vector<double> perJobMs;
    for (std::size_t j = 0; j < roi.size(); ++j) {
        const double r = median(roi[j]);
        summary.roiSeconds += r;
        totalOps += median(ops[j]);
        perJobMs.push_back(r * 1e3);
    }
    summary.opsPerSecond =
        summary.roiSeconds > 0 ? totalOps / summary.roiSeconds : 0;
    summary.gmeanMs = geomean(perJobMs);
    return summary;
}

void
setSharedMetrics(const Options& options, const RoiSummary& roi,
                 const std::vector<double>& jobSeconds,
                 const std::string& store, int setupProbes, long attempted,
                 long failed, Report& report)
{
    // Resume passes are sub-millisecond: the mean over many processes
    // spread over seconds, as the per-process values fall into two
    // layout modes that a median would flip between.
    constexpr int kResumeProbes = 24;
    constexpr double kResumeSpanSeconds = 6.0;

    Metrics& e = report.endToEnd;
    e.set("sim_sync_ops_per_s", roi.opsPerSecond, "ops/s");
    e.set("native_roi_s", roi.roiSeconds, "s");
    e.set("native_roi_gmean_ms", roi.gmeanMs, "ms");
    for (const auto& [name, q] :
         {std::pair<const char*, double>{"job_s.p50", 0.5}, {"job_s.p90", 0.9}}) {
        e.set(name, percentile(jobSeconds, q), "s");
        report.percentileSamples[name] = {
            static_cast<long>(jobSeconds.size()), samplesAbove(jobSeconds, q)};
    }
    const ProbeSamples probes = runProbes(options, store, setupProbes,
                                          kResumeProbes, kResumeSpanSeconds);
    e.set("setup_s", median(probes.setup), "s");
    e.set("resume_s", mean(probes.resume), "s");
    e.set("peak_rss_mb", peakRssMb(), "MiB");
    e.set("ok_frac",
          attempted ? static_cast<double>(attempted - failed) /
                          static_cast<double>(attempted)
                    : 0,
          "ratio");
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
mean(const std::vector<double>& values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double>& values)
{
    double logSum = 0;
    std::size_t n = 0;
    for (double v : values) {
        if (v > 0) {
            logSum += std::log(v);
            ++n;
        }
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

long
samplesAbove(const std::vector<double>& values, double q)
{
    const double cut = percentile(values, q);
    return static_cast<long>(std::count_if(
        values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

namespace {

/** One probe process: --probe @p kind; returns the number it prints. */
double
runProbe(const Options& options, const std::string& kind,
         const std::string& store)
{
    std::vector<std::string> args = {
        "/proc/self/exe", "--workload", options.workload,
        "--seed", std::to_string(options.seed),
        "--seconds", "1", "--out", options.outDir,
        "--golden", options.goldenDir, "--probe", kind};
    if (kind == "resume") {
        args.push_back("--store");
        args.push_back(store);
    }
    std::vector<char*> argv;
    for (auto& arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0)
        splash::fatal("probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    std::string text;
    char buf[256];
    ssize_t n;
    while ((n = ::read(out[0], buf, sizeof buf)) > 0)
        text.append(buf, static_cast<std::size_t>(n));
    ::close(out[0]);
    int status = 0;
    if (rc == 0)
        ::waitpid(pid, &status, 0);
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        text.empty())
        splash::fatal("probe '" + kind + "' failed");
    return std::strtod(text.c_str(), nullptr);
}

} // namespace

ProbeSamples
runProbes(const Options& options, const std::string& store, int setupCount,
          int resumeCount, double spanSeconds)
{
    ProbeSamples samples;
    const int total = setupCount + resumeCount;
    const double t0 = now();
    for (int i = 0; i < total; ++i) {
        const double due = t0 + spanSeconds * i / total;
        if (now() < due)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(due - now()));
        // Spread the set-up probes evenly among the resume probes.
        const bool setup =
            (i + 1) * setupCount / total > i * setupCount / total;
        if (setup)
            samples.setup.push_back(runProbe(options, "setup", store));
        else
            samples.resume.push_back(runProbe(options, "resume", store));
    }
    return samples;
}

void
writeFile(const std::string& path, const std::string& text)
{
    const std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out)
        splash::fatal("cannot write " + path);
}

} // namespace splashbench
