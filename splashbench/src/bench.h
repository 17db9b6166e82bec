/**
 * @file
 * Shared pieces of the splashbench program: options, the span tracer,
 * the metric sink, modeled-output checking and small statistics.
 *
 * splashbench measures the splash libraries from the outside: every
 * timing wraps a call into one module's public interface
 * (Benchmark::setup/verify, the engines, runPlan, runBenchmarkAttempt,
 * ResultStore, the machine-file loader), never code inside them.
 */

#ifndef SPLASHBENCH_BENCH_H
#define SPLASHBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/run_plan.h"
#include "core/stats.h"

namespace splashbench {

using Clock = std::chrono::steady_clock;

/** Seconds on the benchmark's clock (steady, process-relative). */
double now();

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    std::string outDir;     ///< run artifacts (traces, stores, digests)
    std::string goldenDir;  ///< committed modeled-output goldens
    bool writeGolden = false;
};

/** The seed whose modeled outputs are pinned by the committed golden. */
constexpr std::uint64_t kGoldenSeed = 1;

/** One traced interval. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int id = 0;
    int parent = -1; ///< -1 for a root span
    std::string job; ///< plan job id, empty outside a job
};

/**
 * In-memory span recorder.  Disabled, it records nothing and begin()
 * returns -1; the caller's own timestamps still feed the untraced
 * metrics, so tracing adds only the push_back of each span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span now; @return its id (-1 when disabled). */
    int begin(const std::string& name, int parent,
              const std::string& job = std::string());

    /** Close span @p id now (no-op for -1). */
    void end(int id);

    /** Record an interval observed elsewhere (e.g. store lines). */
    int add(const std::string& name, double start, double end,
            int parent, const std::string& job = std::string());

    /**
     * Self time per span name: each span's duration minus the part of
     * it covered by its children, summed over spans of that name.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON (complete "X" events, microseconds). */
    std::string chromeTrace() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer& tracer, const std::string& name, int parent,
              const std::string& job = std::string())
        : tracer_(tracer), id_(tracer.begin(name, parent, job))
    {
    }
    ~SpanScope() { tracer_.end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    int id() const { return id_; }

  private:
    Tracer& tracer_;
    int id_;
};

/** Named metrics with units, emitted in name order. */
class Metrics
{
  public:
    void set(const std::string& name, double value,
             const std::string& unit);
    /** {"name": {"value": v, "unit": "u"}, ...} with full digits. */
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** What one run hands back to main(). */
struct Report
{
    long attempted = 0;
    long failed = 0;
    bool correct = true;
    Metrics endToEnd; ///< every end_to_end metric (untraced runs)
    Metrics layers;   ///< every per_layer metric (traced runs)
    Tracer tracer{false};
    /** Sample counts behind each percentile metric: {total, above}. */
    std::map<std::string, std::pair<long, long>> percentileSamples;
    /** Per-campaign values behind the medians, for diagnosis. */
    std::map<std::string, std::vector<double>> series;
};

/** Per-layer metric names and units (the BENCHMARK.json catalogue). */
const std::vector<std::pair<std::string, std::string>>& layerCatalogue();

/** Seed every per-layer metric at 0 (a layer idle on this workload). */
void initLayers(Metrics& layers);

/** Span names whose self time is reported as self_s.<name>. */
const std::vector<std::string>& selfTimeSpans();

/**
 * Modeled synchronization operations in a ThreadStats: barrier
 * crossings, lock acquires and the lock-free RMW families.
 */
std::uint64_t syncOps(const splash::ThreadStats& stats);

/**
 * Canonical text of a sim job's modeled output: simulated cycles,
 * line transfers (total and per scope) and the ThreadStats op counts.
 * Two runs of the same job must produce the same text.
 */
std::string modeledDigest(const splash::JobSpec& job,
                          const splash::RunResult& result);

/**
 * Checks modeled outputs against a reference: at kGoldenSeed the
 * committed golden in the benchmark directory, at any other seed the
 * digests the first run with that seed recorded in the out dir (so
 * repeated and traced runs must agree exactly).  Within one run the
 * first digest of a job is the reference for its repeats.
 */
class ModeledCheck
{
  public:
    ModeledCheck(const Options& options, const std::string& workload);

    /** @return true when @p digest matches the reference for @p job. */
    bool check(const std::string& jobId, const std::string& digest);

    /** Write newly learnt digests (first run of a seed / golden). */
    void save() const;

    long mismatches() const { return mismatches_; }

  private:
    std::string path_;
    bool golden_;         ///< the seed is kGoldenSeed
    bool writeGolden_;
    bool frozen_ = false; ///< reference file existed: never rewrite
    std::map<std::string, std::string> reference_;
    std::map<std::string, std::string> seen_;
    long mismatches_ = 0;
};

/**
 * Whether a run that has finished @p done campaigns, the last taking
 * @p last seconds, @p elapsed seconds after it began, starts another:
 * until @p minimum are done, then while one more still fits in
 * @p seconds.
 */
bool anotherCampaign(int done, int minimum, double elapsed, double last,
                     double seconds);

/** ROI-derived end-to-end metrics of one run. */
struct RoiSummary
{
    double roiSeconds = 0;    ///< sum over jobs of each job's median ROI
    double opsPerSecond = 0;  ///< sum of median ops / roiSeconds
    double gmeanMs = 0;       ///< geomean of each job's median ROI, ms
};

/**
 * Summarize per-job samples, indexed [job][campaign].  Each job's
 * median across the run's campaigns drops the one-off slow samples
 * (a child that met a page-fault storm) before the jobs are summed.
 */
RoiSummary summarizeRoi(const std::vector<std::vector<double>>& roi,
                        const std::vector<std::vector<double>>& ops);

/**
 * The end-to-end metrics every workload computes alike: the three ROI
 * metrics, job_s.p50/p90 over @p jobSeconds (with their sample
 * counts), setup_s and resume_s from fresh-process probes (the median
 * of @p setupProbes set-ups; resume passes over @p store), peak_rss_mb
 * and ok_frac.
 */
void setSharedMetrics(const Options& options, const RoiSummary& roi,
                      const std::vector<double>& jobSeconds,
                      const std::string& store, int setupProbes,
                      long attempted, long failed, Report& report);

/** Peak resident set of this process and its reaped children, MiB. */
double peakRssMb();

double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/** Linear-interpolated percentile, q in [0, 1]. */
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

/** Samples strictly above the q-percentile of @p values. */
long samplesAbove(const std::vector<double>& values, double q);

/** Write @p text to @p path, creating parent directories. */
void writeFile(const std::string& path, const std::string& text);

/** What runProbes measured, one value per probe process. */
struct ProbeSamples
{
    std::vector<double> setup;
    std::vector<double> resume;
};

/**
 * Run fresh copies of this program in probe mode, one after the
 * other: @p setupCount "setup" probes interleaved evenly with
 * @p resumeCount "resume" probes over @p store, the i-th of them
 * starting no earlier than i / total of @p spanSeconds in.  Each
 * returns the number its probe prints.  Short timings such as a
 * resume pass move by tens of percent with the process's memory
 * layout, which is fixed for the life of a process, and with the
 * host's speed at that moment; sampling several processes over
 * several seconds averages over both.  A probe that fails is fatal.
 */
ProbeSamples runProbes(const Options& options, const std::string& store,
                       int setupCount, int resumeCount, double spanSeconds);

/** Workload entry points (inprocess.cc, isolated.cc). */
Report runSimFig1(const Options& options);
Report runNativeSuite(const Options& options);
Report runIsolatedCampaign(const Options& options);

/**
 * Probe bodies, run inside a probe process: "setup" performs one
 * set-up round (its time is taken by main, from process start);
 * "resume" returns the median of several resume passes over @p store.
 */
double inProcessProbe(const Options& options, const std::string& kind,
                      const std::string& store);
double isolatedProbe(const Options& options, const std::string& kind,
                     const std::string& store);

} // namespace splashbench

#endif // SPLASHBENCH_BENCH_H
