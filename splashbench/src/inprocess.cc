/**
 * @file
 * The two in-process workloads, sim-fig1 and native-suite.
 *
 * Both run the 24 jobs of Figure 1 (12 workloads x {splash3, splash4}
 * at benchParams(name, 1.0)) serially in this process, driving each
 * job's lifecycle through the public calls the library's runner makes
 * — Benchmark::setup, the engine's run, Benchmark::verify — so each
 * can be timed on its own.  A pass is one set-up round (every job's
 * setup) followed by the timed campaign (every job's engine run and
 * verify).  Passes repeat while another one fits in --seconds (and,
 * on native-suite, until the run holds 2 s of ROI); every job's
 * result also lands in a ResultStore so the resume path can be timed.
 * setup_s and resume_s are taken in fresh processes (runProbes).
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include <sched.h>

#include "bench.h"
#include "core/sync_profile.h"
#include "engine/fast_context.h"
#include "engine/native_engine.h"
#include "harness/presets.h"
#include "harness/result_store.h"
#include "harness/scheduler.h"
#include "sim/machine.h"
#include "util/log.h"

namespace splashbench {

namespace {

using splash::EngineKind;
using splash::SuiteVersion;

/** Resume passes inside the measured process (spans, layer metrics). */
constexpr int kResumePasses = 20;
/** Fresh processes behind setup_s and resume_s (see runProbes). */
constexpr int kSetupProbes = 7;
constexpr int kResumePassesPerProbe = 10;

/** What distinguishes the two in-process workloads. */
struct Spec
{
    std::string workload;
    EngineKind engine = EngineKind::Sim;
    int threads = 1;
    std::string machineFile; ///< sim only: profile loaded from a file
    /** Keep adding passes until the run holds this much ROI ... */
    double minRoiSeconds = 0;
    /** ... and this many passes. */
    int minPasses = 1;
};

struct Prepared
{
    std::unique_ptr<splash::Benchmark> bench;
    std::unique_ptr<splash::World> world;
};

struct SetupRound
{
    double seconds = 0;
    double machineLoadSeconds = 0;
    double coreSetupSeconds = 0;
    splash::RunPlan plan;
    std::vector<Prepared> prepared;
};

/** One job of a timed campaign, as measured from outside. */
struct JobSample
{
    std::string benchmark;
    SuiteVersion suite = SuiteVersion::Splash4;
    double wall = 0;   ///< engine + verify + store append
    double engine = 0; ///< engine construction and run
    double roi = 0;    ///< the engine's parallel section
    double verify = 0;
    std::uint64_t ops = 0;
    std::uint64_t lineTransfers = 0;
    bool ok = false;
};

struct Pass
{
    double setupSeconds = 0;
    double campaignSeconds = 0;
    std::vector<JobSample> jobs;
};

/** Everything one measurement phase (traced or not) observed. */
struct Measurement
{
    std::vector<SetupRound> rounds; ///< prepared sets released
    std::vector<Pass> passes;
    std::string storePath; ///< the last campaign's store
    std::vector<double> resumeSeconds;
    std::vector<double> storeLoadSeconds;
    std::size_t storeRecords = 0;
    long attempted = 0;
    long failed = 0;
    bool resumeOk = true;
    std::vector<std::shared_ptr<const splash::SyncProfile>> profiles;
};

splash::RunPlan
buildPlan(const Spec& spec, std::uint64_t seed, bool syncProfile)
{
    splash::RunPlan plan;
    for (const auto& name : splash::suiteOrder()) {
        for (SuiteVersion suite :
             {SuiteVersion::Splash3, SuiteVersion::Splash4}) {
            splash::RunConfig config;
            config.threads = spec.threads;
            config.suite = suite;
            config.engine = spec.engine;
            if (!spec.machineFile.empty())
                config.profile = spec.machineFile;
            config.syncProfile = syncProfile;
            config.params = splash::benchParams(name, 1.0);
            config.params.set("seed", static_cast<std::int64_t>(seed));
            plan.add(name, config);
        }
    }
    return plan;
}

SetupRound
setUp(const Spec& spec, const Options& options, bool syncProfile,
      Tracer& tracer, int parent)
{
    SetupRound round;
    SpanScope span(tracer, "setup_round", parent);
    const double t0 = now();
    if (!spec.machineFile.empty()) {
        // The machine-file loader: read and validate the JSON.  The
        // engine resolves the same path through machineProfile(),
        // which caches it after the first round.
        SpanScope load(tracer, "util.machine_load", span.id());
        const double m0 = now();
        std::ifstream in(spec.machineFile);
        std::ostringstream text;
        text << in.rdbuf();
        splash::MachineProfile profile;
        std::string error;
        if (!in || !splash::parseMachineProfile(text.str(), spec.machineFile,
                                                profile, error))
            splash::fatal("cannot load " + spec.machineFile + ": " + error);
        splash::machineProfile(spec.machineFile);
        round.machineLoadSeconds = now() - m0;
    }
    {
        SpanScope build(tracer, "plan_build", span.id());
        round.plan = buildPlan(spec, options.seed, syncProfile);
    }
    for (const splash::JobSpec& job : round.plan.jobs()) {
        SpanScope setup(tracer, "core.setup", span.id(), job.jobId);
        const double s0 = now();
        Prepared p;
        p.bench = splash::makeBenchmark(job.benchmark);
        p.world = std::make_unique<splash::World>(job.config.threads,
                                                  job.config.suite);
        p.bench->setup(*p.world, job.config.params);
        round.coreSetupSeconds += now() - s0;
        round.prepared.push_back(std::move(p));
    }
    round.seconds = now() - t0;
    return round;
}

/**
 * The engine call runBenchmark makes: the native engine's
 * monomorphized path when the benchmark has one (fast-path auto),
 * otherwise makeEngine(...)->run.
 */
splash::EngineOutcome
execute(splash::Benchmark& bench, const splash::RunConfig& config,
        const splash::World& world)
{
    if (config.engine == EngineKind::Native && bench.hasFastPath()) {
        splash::NativeOptions native;
        native.syncProfile = config.syncProfile;
        splash::NativeEngine engine(world, native);
        return engine.runFast(
            [&](splash::NativeFastContext& ctx) { bench.runFast(ctx); });
    }
    auto engine = splash::makeEngine(world, config);
    return engine->run([&](splash::Context& ctx) { bench.run(ctx); });
}

Pass
runCampaign(SetupRound& round, const Spec& spec, splash::ResultStore& store,
            ModeledCheck& check, Measurement& m, Tracer& tracer, int parent)
{
    Pass pass;
    pass.setupSeconds = round.seconds;
    SpanScope campaign(tracer, "campaign", parent);
    const double c0 = now();
    for (std::size_t i = 0; i < round.plan.size(); ++i) {
        const splash::JobSpec& job = round.plan.job(i);
        Prepared& p = round.prepared[i];
        SpanScope jobSpan(tracer, "job", campaign.id(), job.jobId);
        JobSample sample;
        sample.benchmark = job.benchmark;
        sample.suite = job.config.suite;
        const double j0 = now();

        splash::EngineOutcome outcome;
        {
            SpanScope span(tracer, "engine.run", jobSpan.id(), job.jobId);
            outcome = execute(*p.bench, job.config, *p.world);
        }
        sample.engine = now() - j0;

        splash::RunResult result;
        result.status = outcome.status;
        result.simCycles = outcome.makespan;
        result.lineTransfers = outcome.lineTransfers;
        result.transfersByScope = outcome.transfersByScope;
        result.wallSeconds = outcome.wallSeconds;
        result.perThread = std::move(outcome.perThread);
        for (const auto& stats : result.perThread)
            result.totals.merge(stats);
        if (outcome.syncProfile)
            m.profiles.push_back(outcome.syncProfile);
        {
            SpanScope span(tracer, "core.verify", jobSpan.id(), job.jobId);
            const double v0 = now();
            if (result.status == splash::RunStatus::Ok) {
                result.verified = p.bench->verify(result.verifyMessage);
                if (!result.verified)
                    result.status = splash::RunStatus::VerifyFailed;
            }
            sample.verify = now() - v0;
        }
        {
            SpanScope span(tracer, "store.append", jobSpan.id(), job.jobId);
            store.appendStarted(job, 1);
            store.append(splash::makeResultRecord(job, result));
        }
        sample.wall = now() - j0;
        sample.roi = result.wallSeconds;
        sample.ops = syncOps(result.totals);
        sample.lineTransfers = result.lineTransfers;
        sample.ok = result.ok() && result.verified;
        if (spec.engine == EngineKind::Sim &&
            !check.check(job.jobId, modeledDigest(job, result)))
            sample.ok = false;
        if (!sample.ok)
            splash::warn(job.benchmark + " [" + job.jobId +
                         "] failed: " + splash::toString(result.status) +
                         " " + result.verifyMessage);
        ++m.attempted;
        m.failed += sample.ok ? 0 : 1;
        pass.jobs.push_back(sample);
        p = Prepared{}; // release the job's data before the next one
    }
    pass.campaignSeconds = now() - c0;
    return pass;
}

/** Resume passes over a finished store: load it, find every job. */
void
resumePasses(const splash::RunPlan& plan, const std::string& path,
             int passes, Measurement& m, Tracer& tracer, int parent)
{
    for (int r = 0; r < passes; ++r) {
        SpanScope span(tracer, "resume", parent);
        const double t0 = now();
        splash::ResultStore store(path);
        std::size_t loaded = 0;
        {
            SpanScope load(tracer, "store.load", span.id());
            const double l0 = now();
            loaded = store.load();
            m.storeLoadSeconds.push_back(now() - l0);
        }
        std::vector<splash::JobOutcome> outcomes;
        {
            SpanScope run(tracer, "scheduler.runPlan", span.id());
            outcomes = splash::runPlan(plan, splash::SchedulerOptions{},
                                       &store);
        }
        m.resumeSeconds.push_back(now() - t0);
        m.storeRecords = loaded;
        for (const auto& outcome : outcomes)
            m.resumeOk = m.resumeOk && outcome.resumed && outcome.result.ok();
    }
}

Measurement
measure(const Spec& spec, const Options& options, bool syncProfile,
        double seconds, ModeledCheck& check, Tracer& tracer, int parent)
{
    Measurement m;
    const std::string storePath = options.outDir + "/" + spec.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  ".jsonl";
    m.storePath = storePath;
    splash::RunPlan plan;
    const double t0 = now();
    double roi = 0, last = 0;
    do {
        std::filesystem::remove(storePath);
        splash::ResultStore store(storePath);
        SetupRound round = setUp(spec, options, syncProfile, tracer, parent);
        Pass pass = runCampaign(round, spec, store, check, m, tracer, parent);
        for (const auto& job : pass.jobs)
            roi += job.roi;
        last = pass.setupSeconds + pass.campaignSeconds;
        plan = round.plan;
        round.prepared.clear();
        m.rounds.push_back(std::move(round));
        m.passes.push_back(std::move(pass));
    } while (roi < spec.minRoiSeconds ||
             anotherCampaign(static_cast<int>(m.passes.size()), spec.minPasses,
                             now() - t0, last, seconds));
    resumePasses(plan, storePath, kResumePasses, m, tracer, parent);
    return m;
}

std::vector<double>
collect(const Measurement& m, double JobSample::*field)
{
    std::vector<double> v;
    for (const auto& pass : m.passes)
        for (const auto& job : pass.jobs)
            v.push_back(job.*field);
    return v;
}

/** Median over passes of a per-pass sum of @p field over matching jobs. */
template <class Pred>
double
medianPassSum(const Measurement& m, double JobSample::*field, Pred pred)
{
    std::vector<double> sums;
    for (const auto& pass : m.passes) {
        double sum = 0;
        for (const auto& job : pass.jobs)
            if (pred(job))
                sum += job.*field;
        sums.push_back(sum);
    }
    return median(sums);
}

double
medianCampaign(const Measurement& m)
{
    std::vector<double> v;
    for (const auto& pass : m.passes)
        v.push_back(pass.campaignSeconds);
    return median(v);
}

void
endToEndMetrics(const Options& options, const Measurement& m, Report& report)
{
    Metrics& e = report.endToEnd;
    e.set("campaign_s", medianCampaign(m), "s");
    for (const auto& pass : m.passes) {
        double roi = 0;
        for (const auto& job : pass.jobs)
            roi += job.roi;
        report.series["campaign_s"].push_back(pass.campaignSeconds);
        report.series["native_roi_s"].push_back(roi);
    }

    const std::size_t jobs = m.passes.front().jobs.size();
    std::vector<std::vector<double>> roi(jobs), ops(jobs);
    for (const auto& pass : m.passes)
        for (std::size_t j = 0; j < jobs; ++j) {
            roi[j].push_back(pass.jobs[j].roi);
            ops[j].push_back(static_cast<double>(pass.jobs[j].ops));
        }
    setSharedMetrics(options, summarizeRoi(roi, ops),
                     collect(m, &JobSample::wall), m.storePath, kSetupProbes,
                     m.attempted, m.failed, report);
}

void
layerMetrics(const Spec& spec, const Measurement& m, Report& report)
{
    Metrics& l = report.layers;
    std::vector<double> setup, machine;
    for (const auto& round : m.rounds) {
        setup.push_back(round.coreSetupSeconds);
        machine.push_back(round.machineLoadSeconds * 1e3);
    }
    l.set("core.setup_s", median(setup), "s");
    l.set("util.machine_load_ms", median(machine), "ms");
    l.set("core.verify_s",
          medianPassSum(m, &JobSample::verify,
                        [](const JobSample&) { return true; }),
          "s");

    const bool sim = spec.engine == EngineKind::Sim;
    const std::string engine = sim ? "sim" : "native";
    for (SuiteVersion suite : {SuiteVersion::Splash3, SuiteVersion::Splash4}) {
        const std::string tag = splash::toString(suite);
        auto ofSuite = [suite](const JobSample& j) { return j.suite == suite; };
        l.set(engine + ".engine_s." + tag,
              medianPassSum(m, &JobSample::engine, ofSuite), "s");
        if (sim) {
            double host = 0, ops = 0;
            for (const auto& pass : m.passes)
                for (const auto& job : pass.jobs)
                    if (job.suite == suite) {
                        host += job.engine;
                        ops += static_cast<double>(job.ops);
                    }
            l.set("sim.host_ns_per_sync_op." + tag,
                  ops > 0 ? host * 1e9 / ops : 0, "ns");
        } else {
            l.set("native.roi_s." + tag,
                  medianPassSum(m, &JobSample::roi, ofSuite), "s");
        }
    }
    for (const auto& name : splash::suiteOrder()) {
        auto ofBench = [&name](const JobSample& j) {
            return j.benchmark == name;
        };
        if (sim)
            l.set("sim.engine_s." + name,
                  medianPassSum(m, &JobSample::engine, ofBench), "s");
        else
            l.set("native.roi_s." + name,
                  medianPassSum(m, &JobSample::roi, ofBench), "s");
    }
    if (sim) {
        double ops = 0, transfers = 0;
        for (const auto& job : m.passes.front().jobs) {
            ops += static_cast<double>(job.ops);
            transfers += static_cast<double>(job.lineTransfers);
        }
        l.set("sim.sync_ops", ops, "count");
        l.set("sim.line_transfers", transfers, "count");
    } else {
        std::vector<double> spawnJoin;
        for (const auto& pass : m.passes) {
            double s = 0;
            for (const auto& job : pass.jobs)
                s += job.engine - job.roi;
            spawnJoin.push_back(s);
        }
        l.set("native.spawn_join_s", median(spawnJoin), "s");
    }
    l.set("harness.store_load_s", median(m.storeLoadSeconds), "s");
    l.set("harness.store_records", static_cast<double>(m.storeRecords),
          "count");
}

/** sync.* from a Sync-Scope profile pass (native-suite only). */
void
syncMetrics(const Measurement& m, Metrics& l)
{
    for (SuiteVersion suite : {SuiteVersion::Splash3, SuiteVersion::Splash4}) {
        double wait = 0, available = 0, ops = 0, attempts = 0, retries = 0;
        for (const auto& profile : m.profiles) {
            if (profile->suite != suite)
                continue;
            wait += static_cast<double>(profile->waitTotal());
            available += static_cast<double>(profile->availableTotal);
            for (const auto& c : profile->constructs) {
                ops += static_cast<double>(c.ops);
                attempts += static_cast<double>(c.attempts);
                retries += static_cast<double>(c.retries);
            }
        }
        const std::string tag = splash::toString(suite);
        l.set("sync.wait_frac." + tag, available > 0 ? wait / available : 0,
              "ratio");
        l.set("sync.ops." + tag, ops, "count");
        if (suite == SuiteVersion::Splash4)
            l.set("sync.retry_ratio.splash4",
                  attempts > 0 ? retries / attempts : 0, "ratio");
    }
}

Report
runInProcess(const Spec& spec, const Options& options)
{
    Report report;
    ModeledCheck check(options, spec.workload);

    if (!options.trace) {
        Tracer off(false);
        Measurement m =
            measure(spec, options, false, options.seconds, check, off, -1);
        endToEndMetrics(options, m, report);
        report.attempted = m.attempted;
        report.failed = m.failed;
        report.correct = m.failed == 0 && m.resumeOk;
    } else {
        // Untraced first, as the tracing-overhead baseline; then the
        // traced measurement the layer metrics come from.
        Tracer off(false);
        Measurement base =
            measure(spec, options, false, options.seconds, check, off, -1);
        initLayers(report.layers);
        report.tracer = Tracer(true);
        Tracer& tracer = report.tracer;
        Measurement m;
        {
            SpanScope root(tracer, "workload", -1);
            m = measure(spec, options, false, options.seconds, check, tracer,
                        root.id());
            if (spec.engine == EngineKind::Native) {
                SpanScope pass(tracer, "profile_pass", root.id());
                Measurement profiled =
                    measure(spec, options, true, 0, check, tracer, pass.id());
                syncMetrics(profiled, report.layers);
                m.attempted += profiled.attempted;
                m.failed += profiled.failed;
            }
        }
        layerMetrics(spec, m, report);
        report.layers.set("trace.overhead_s",
                          medianCampaign(m) - medianCampaign(base), "s");
        report.attempted = base.attempted + m.attempted;
        report.failed = base.failed + m.failed;
        report.correct = report.failed == 0 && base.resumeOk && m.resumeOk;
    }
    report.correct = report.correct && check.mismatches() == 0;
    if (report.correct || options.writeGolden)
        check.save();
    return report;
}

Spec
specFor(const std::string& workload)
{
    Spec spec;
    spec.workload = workload;
    if (workload == "sim-fig1") {
        spec.engine = EngineKind::Sim;
        spec.threads = 64;
        spec.machineFile = "machines/epyc64.json";
        // A pass is 14-18 s on the baseline host; the median of two
        // halves the weight of a slow stretch that hits one of them.
        spec.minPasses = 2;
    } else {
        spec.engine = EngineKind::Native;
        spec.threads = 2;
        spec.minRoiSeconds = 2.0;
        // 5 x 24 jobs leave 12 samples above job_s.p90.
        spec.minPasses = 5;
    }
    return spec;
}

/**
 * Confine this process to one host CPU, the highest-numbered one it
 * may use (CPU 0 takes most device interrupts).  The SimEngine runs
 * one simulated thread at a time and hands a run token between host
 * threads; left unpinned, each handoff wakes another CPU, and on a
 * shared virtual machine that wake-up waits for the hypervisor to run
 * the other virtual CPU, which made campaign_s swing by 2x from run
 * to run.  Pinned, the host time is the handoff mechanism's own cost.
 */
void
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        splash::fatal("sim-fig1: cannot read the CPU affinity");
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (sched_setaffinity(0, sizeof one, &one) != 0)
                splash::fatal("sim-fig1: cannot pin to one CPU");
            return;
        }
    }
}

} // namespace

Report
runSimFig1(const Options& options)
{
    pinToOneCpu();
    return runInProcess(specFor("sim-fig1"), options);
}

Report
runNativeSuite(const Options& options)
{
    return runInProcess(specFor("native-suite"), options);
}

double
inProcessProbe(const Options& options, const std::string& kind,
               const std::string& store)
{
    const Spec spec = specFor(options.workload);
    Tracer off(false);
    if (kind == "setup")
        return setUp(spec, options, false, off, -1).seconds;
    Measurement m;
    resumePasses(buildPlan(spec, options.seed, false), store,
                 kResumePassesPerProbe, m, off, -1);
    if (!m.resumeOk)
        splash::fatal("resume probe: a job was not resumed Ok");
    return median(m.resumeSeconds);
}

} // namespace splashbench
