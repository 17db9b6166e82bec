/**
 * @file
 * The isolated-campaign workload: the harness under load.
 *
 * 12 workloads x 10 repetitions (distinct input seeds) with the CLI's
 * default inputs, each on the sim engine at one simulated thread — a
 * job with no simulator handoffs, so nearly all of its wall time is
 * harness: fork, heartbeat, result pipe, write-ahead store appends
 * with fdatasync.  The plan runs through runPlan with --isolate and
 * --jobs=2 against a ResultStore; a watcher thread tails the store
 * and stamps when each job's `started` intent and `result` record
 * land, which is the per-job latency as seen from outside.  Resume
 * passes over the finished store time the store's read path.
 */

#include <filesystem>
#include <thread>

#include <cerrno>

#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include "bench.h"
#include "harness/executor.h"
#include "harness/presets.h"
#include "harness/result_store.h"
#include "harness/scheduler.h"
#include "util/log.h"

namespace splashbench {

namespace {

constexpr int kRepetitions = 10;
/** Resume passes inside the measured process (spans, layer metrics);
    setup_s and resume_s come from fresh processes (runProbes). */
constexpr int kResumePasses = 20;
constexpr int kSetupProbes = 31;
/** Each job's ROI is a median over at least this many campaigns. */
constexpr int kMinCampaigns = 2;
constexpr int kResumePassesPerProbe = 10;
constexpr std::size_t kProbeJobs = 24;
constexpr int kAppendProbes = 60;

splash::RunPlan
buildPlan(std::uint64_t seed)
{
    splash::RunConfig base;
    base.threads = 1;
    base.engine = splash::EngineKind::Sim;
    base.params.set("seed", static_cast<std::int64_t>(seed));
    return splash::buildSuitePlan(splash::suiteOrder(), base, kRepetitions);
}

splash::SchedulerOptions
schedulerOptions()
{
    splash::SchedulerOptions sched;
    sched.jobs = 2;
    sched.isolate.enabled = true; // default 0.2 s heartbeat
    return sched;
}

/**
 * Tails a result store from its own thread and stamps, on the
 * benchmark's clock, when each job's first `started` intent and its
 * terminal `result` record appear in the file.  It sleeps in poll()
 * on an inotify watch, so it wakes only when the store is written: a
 * timed polling loop would wake thousands of times a second and slow
 * the children it is timing.
 */
class StoreWatcher
{
  public:
    /** @p path must exist (the caller creates it empty). */
    explicit StoreWatcher(std::string path)
        : path_(std::move(path)),
          file_(::open(path_.c_str(), O_RDONLY | O_CLOEXEC)),
          inotify_(::inotify_init1(IN_CLOEXEC))
    {
        if (file_ < 0 || inotify_ < 0 || ::pipe2(stop_, O_CLOEXEC) != 0 ||
            ::inotify_add_watch(inotify_, path_.c_str(), IN_MODIFY) < 0)
            splash::fatal("store watcher: cannot watch " + path_);
        thread_ = std::thread([this] { loop(); });
    }
    ~StoreWatcher()
    {
        stop();
        for (int fd : {file_, inotify_, stop_[0], stop_[1]})
            ::close(fd);
    }
    StoreWatcher(const StoreWatcher&) = delete;
    StoreWatcher& operator=(const StoreWatcher&) = delete;

    /** Read what is left, then end the thread. */
    void
    stop()
    {
        if (!thread_.joinable())
            return;
        const char byte = 0;
        if (::write(stop_[1], &byte, 1) != 1)
            splash::fatal("store watcher: cannot stop");
        thread_.join();
    }

    /** Valid after stop(). */
    std::map<std::string, double> started;
    std::map<std::string, double> finished;
    long intents = 0;

  private:
    void
    loop()
    {
        pollfd fds[2] = {{inotify_, POLLIN, 0}, {stop_[0], POLLIN, 0}};
        char events[4096];
        for (;;) {
            if (::poll(fds, 2, -1) < 0 && errno != EINTR)
                break;
            if (fds[0].revents & POLLIN) {
                if (::read(inotify_, events, sizeof events) < 0)
                    break;
            }
            drain(now());
            if (fds[1].revents & POLLIN)
                return;
        }
    }

    void
    drain(double t)
    {
        char buf[1 << 14];
        ssize_t n;
        while ((n = ::read(file_, buf, sizeof buf)) > 0)
            pending_.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = pending_.find('\n')) != std::string::npos) {
            line(pending_.substr(0, nl), t);
            pending_.erase(0, nl + 1);
        }
    }

    void
    line(const std::string& text, double t)
    {
        static const std::string key = "\"jobId\":\"";
        const std::size_t at = text.find(key);
        if (at == std::string::npos)
            return;
        const std::size_t from = at + key.size();
        const std::string id = text.substr(from, text.find('"', from) - from);
        if (text.find("\"type\":\"started\"") != std::string::npos) {
            ++intents;
            started.emplace(id, t);
        } else if (text.find("\"type\":\"result\"") != std::string::npos) {
            finished.emplace(id, t);
        }
    }

    std::string path_;
    int file_;
    int inotify_;
    int stop_[2] = {-1, -1};
    std::string pending_;
    std::thread thread_;
};

struct Campaign
{
    double seconds = 0;
    std::vector<double> jobLatency;
    std::vector<splash::JobOutcome> outcomes;
    long intents = 0;
    int retries = 0;
};

struct Measurement
{
    splash::RunPlan plan;
    std::string storePath; ///< the last campaign's store
    std::vector<Campaign> campaigns;
    std::vector<double> resumeSeconds;
    std::vector<double> storeLoadSeconds;
    std::size_t storeRecords = 0;
    long attempted = 0;
    long failed = 0;
    bool resumeOk = true;
};

Campaign
runCampaign(const splash::RunPlan& plan, const std::string& path,
            ModeledCheck& check, Measurement& m, Tracer& tracer, int parent)
{
    Campaign c;
    std::filesystem::remove(path);
    writeFile(path, ""); // the watcher needs the file to exist
    SpanScope span(tracer, "campaign", parent);
    const double c0 = now();
    {
        splash::ResultStore store(path);
        store.setFsyncPolicy(splash::FsyncPolicy::Data);
        StoreWatcher watcher(path);
        int runSpan = -1;
        {
            SpanScope run(tracer, "scheduler.runPlan", span.id());
            runSpan = run.id();
            c.outcomes = splash::runPlan(plan, schedulerOptions(), &store);
        }
        watcher.stop();
        c.seconds = now() - c0;
        for (const splash::JobSpec& job : plan.jobs()) {
            auto s = watcher.started.find(job.jobId);
            auto f = watcher.finished.find(job.jobId);
            if (s == watcher.started.end() || f == watcher.finished.end())
                continue;
            c.jobLatency.push_back(f->second - s->second);
            tracer.add("job", s->second, f->second, runSpan, job.jobId);
        }
        c.intents = watcher.intents;
    }
    c.retries = splash::summarizeCampaign(c.outcomes).retries;
    for (const auto& outcome : c.outcomes) {
        const splash::RunResult& r = outcome.result;
        bool ok = r.ok() && r.verified &&
                  check.check(outcome.job.jobId,
                              modeledDigest(outcome.job, r));
        if (!ok)
            splash::warn(outcome.job.benchmark + " [" + outcome.job.jobId +
                         "] failed: " + splash::toString(r.status) + " " +
                         r.verifyMessage);
        ++m.attempted;
        m.failed += ok ? 0 : 1;
    }
    if (c.jobLatency.size() != plan.size()) {
        splash::warn("store watcher saw " +
                     std::to_string(c.jobLatency.size()) + " of " +
                     std::to_string(plan.size()) + " jobs");
        m.failed += static_cast<long>(plan.size() - c.jobLatency.size());
    }
    return c;
}

double
setUp(const Options& options, Measurement& m, Tracer& tracer, int parent)
{
    // Build the plan and open a durable store, as the CLI does before
    // its first job.
    const std::string path = options.outDir + "/isolated-campaign-seed" +
                             std::to_string(options.seed) + "-setup.jsonl";
    std::filesystem::remove(path);
    SpanScope span(tracer, "setup_round", parent);
    const double t0 = now();
    {
        SpanScope build(tracer, "plan_build", span.id());
        m.plan = buildPlan(options.seed);
    }
    {
        SpanScope open(tracer, "store.open", span.id());
        splash::ResultStore store(path);
        store.setFsyncPolicy(splash::FsyncPolicy::Data);
        store.load();
    }
    return now() - t0;
}

void
resumePasses(const std::string& path, int passes, Measurement& m,
             Tracer& tracer, int parent)
{
    for (int r = 0; r < passes; ++r) {
        SpanScope span(tracer, "resume", parent);
        const double r0 = now();
        splash::ResultStore store(path);
        store.setFsyncPolicy(splash::FsyncPolicy::Data);
        {
            SpanScope load(tracer, "store.load", span.id());
            const double l0 = now();
            m.storeRecords = store.load();
            m.storeLoadSeconds.push_back(now() - l0);
        }
        std::vector<splash::JobOutcome> outcomes;
        {
            SpanScope run(tracer, "scheduler.runPlan", span.id());
            outcomes = splash::runPlan(m.plan, schedulerOptions(), &store);
        }
        m.resumeSeconds.push_back(now() - r0);
        for (const auto& outcome : outcomes)
            m.resumeOk = m.resumeOk && outcome.resumed && outcome.result.ok();
    }
}

Measurement
measure(const Options& options, double seconds, ModeledCheck& check,
        Tracer& tracer, int parent)
{
    Measurement m;
    setUp(options, m, tracer, parent);
    m.storePath = options.outDir + "/isolated-campaign-seed" +
                  std::to_string(options.seed) + ".jsonl";
    const double t0 = now();
    do {
        m.campaigns.push_back(
            runCampaign(m.plan, m.storePath, check, m, tracer, parent));
    } while (anotherCampaign(static_cast<int>(m.campaigns.size()),
                             kMinCampaigns, now() - t0,
                             m.campaigns.back().seconds, seconds));
    resumePasses(m.storePath, kResumePasses, m, tracer, parent);
    return m;
}

double
medianCampaign(const Measurement& m)
{
    std::vector<double> v;
    for (const auto& c : m.campaigns)
        v.push_back(c.seconds);
    return median(v);
}

void
endToEndMetrics(const Options& options, const Measurement& m, Report& report)
{
    Metrics& e = report.endToEnd;
    e.set("campaign_s", medianCampaign(m), "s");

    std::vector<double> latency;
    std::vector<std::vector<double>> roi(m.plan.size()), ops(m.plan.size());
    for (const auto& c : m.campaigns) {
        double sum = 0;
        for (std::size_t j = 0; j < c.outcomes.size(); ++j) {
            const splash::RunResult& r = c.outcomes[j].result;
            roi[j].push_back(r.wallSeconds);
            ops[j].push_back(static_cast<double>(syncOps(r.totals)));
            sum += r.wallSeconds;
        }
        report.series["campaign_s"].push_back(c.seconds);
        report.series["native_roi_s"].push_back(sum);
        latency.insert(latency.end(), c.jobLatency.begin(),
                       c.jobLatency.end());
    }
    setSharedMetrics(options, summarizeRoi(roi, ops), latency, m.storePath,
                     kSetupProbes, m.attempted, m.failed, report);
}

/**
 * Per-layer probes of the harness: the first kProbeJobs plan jobs
 * through runBenchmarkAttempt isolated and in-process (the isolation
 * overhead), then durable appends of their records.
 */
void
probeHarness(const Options& options, const Measurement& m,
             ModeledCheck& check, Report& report, Tracer& tracer, int parent)
{
    SpanScope probe(tracer, "probe", parent);
    const splash::IsolateOptions iso = schedulerOptions().isolate;
    std::vector<double> overhead;
    std::vector<splash::ResultRecord> records;
    long forks = 0;
    for (std::size_t i = 0; i < kProbeJobs && i < m.plan.size(); ++i) {
        const splash::JobSpec& job = m.plan.job(i);
        splash::RunResult isolated, inproc;
        double t0 = now();
        {
            SpanScope span(tracer, "executor.attempt", probe.id(), job.jobId);
            isolated = splash::runBenchmarkAttempt(job.benchmark, job.config,
                                                   iso, job.jobId, 1);
        }
        const double isoSeconds = now() - t0;
        ++forks;
        t0 = now();
        {
            SpanScope span(tracer, "executor.inproc", probe.id(), job.jobId);
            inproc = splash::runBenchmarkAttempt(
                job.benchmark, job.config, splash::IsolateOptions{},
                job.jobId, 1);
        }
        overhead.push_back(isoSeconds - (now() - t0));
        for (const splash::RunResult* r : {&isolated, &inproc}) {
            const bool ok = r->ok() && r->verified &&
                            check.check(job.jobId, modeledDigest(job, *r));
            ++report.attempted;
            report.failed += ok ? 0 : 1;
        }
        records.push_back(splash::makeResultRecord(job, isolated));
    }

    const std::string path = options.outDir + "/append-probe.jsonl";
    std::filesystem::remove(path);
    std::vector<double> appendMs;
    {
        splash::ResultStore store(path);
        store.setFsyncPolicy(splash::FsyncPolicy::Data);
        for (int k = 0; k < kAppendProbes; ++k) {
            const splash::ResultRecord& record =
                records[static_cast<std::size_t>(k) % records.size()];
            SpanScope span(tracer, "store.append", probe.id(), record.jobId);
            const double a0 = now();
            store.append(record);
            appendMs.push_back((now() - a0) * 1e3);
        }
    }

    Metrics& l = report.layers;
    l.set("harness.isolate_overhead_s.p50", median(overhead), "s");
    l.set("harness.store_append_ms.p50", median(appendMs), "ms");
    long intents = 0;
    int retries = 0;
    for (const auto& c : m.campaigns) {
        intents += c.intents;
        retries += c.retries;
    }
    l.set("harness.forks", static_cast<double>(intents + forks), "count");
    l.set("harness.retries", retries, "count");
}

void
layerMetrics(const Measurement& m, Report& report)
{
    Metrics& l = report.layers;
    double ops = 0, roi = 0, transfers = 0, firstOps = 0;
    for (std::size_t c = 0; c < m.campaigns.size(); ++c) {
        for (const auto& outcome : m.campaigns[c].outcomes) {
            const double jobOps =
                static_cast<double>(syncOps(outcome.result.totals));
            ops += jobOps;
            roi += outcome.result.wallSeconds;
            if (c == 0) {
                firstOps += jobOps;
                transfers +=
                    static_cast<double>(outcome.result.lineTransfers);
            }
        }
    }
    l.set("sim.host_ns_per_sync_op.t1", ops > 0 ? roi * 1e9 / ops : 0, "ns");
    l.set("sim.sync_ops", firstOps, "count");
    l.set("sim.line_transfers", transfers, "count");
    l.set("harness.store_load_s", median(m.storeLoadSeconds), "s");
    l.set("harness.store_records", static_cast<double>(m.storeRecords),
          "count");
}

} // namespace

Report
runIsolatedCampaign(const Options& options)
{
    Report report;
    ModeledCheck check(options, "isolated-campaign");
    Measurement m;
    if (!options.trace) {
        Tracer off(false);
        m = measure(options, options.seconds, check, off, -1);
        endToEndMetrics(options, m, report);
    } else {
        Tracer off(false);
        Measurement base = measure(options, options.seconds, check, off, -1);
        report.attempted += base.attempted;
        report.failed += base.failed + (base.resumeOk ? 0 : 1);
        initLayers(report.layers);
        report.tracer = Tracer(true);
        Tracer& tracer = report.tracer;
        {
            SpanScope root(tracer, "workload", -1);
            m = measure(options, options.seconds, check, tracer, root.id());
            probeHarness(options, m, check, report, tracer, root.id());
        }
        layerMetrics(m, report);
        report.layers.set("trace.overhead_s",
                          medianCampaign(m) - medianCampaign(base), "s");
    }
    report.attempted += m.attempted;
    report.failed += m.failed + (m.resumeOk ? 0 : 1);
    report.correct = report.failed == 0 && check.mismatches() == 0;
    if (report.correct || options.writeGolden)
        check.save();
    return report;
}

double
isolatedProbe(const Options& options, const std::string& kind,
              const std::string& store)
{
    Tracer off(false);
    Measurement m;
    if (kind == "setup")
        return setUp(options, m, off, -1);
    m.plan = buildPlan(options.seed);
    resumePasses(store, kResumePassesPerProbe, m, off, -1);
    if (!m.resumeOk)
        splash::fatal("resume probe: a job was not resumed Ok");
    return median(m.resumeSeconds);
}

} // namespace splashbench
