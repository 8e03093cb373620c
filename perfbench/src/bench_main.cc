/**
 * @file
 * The repository benchmark. One process runs one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (see perfbench/README.md for why each was chosen):
 *   cold_sweep        the full paper grid through runSweep, caches on
 *                     and pointing at fresh directories
 *   replay_context    mcf, list and libquantum replayed from mmap'd
 *                     trace files through the context prefetcher
 *   replay_baselines  the same traces through the six other prefetchers
 *
 * Only generated traces reach the simulator, and --seed picks them.
 * Each run repeats the workload's timed part for about --seconds and
 * reports the sum of its parts' median times (see medianPass). Every
 * simulated (workload, prefetcher) cell goes through the checks in
 * cell_checks.h; a cell that fails one is a failed operation. --trace 0
 * prints the end-to-end metrics; --trace 1 is the separate traced run
 * that wraps each layer call in a span, attaches prof::Profiler, and
 * prints the per-layer metrics. The last stdout line is always one JSON
 * object with the keys correct, attempted, failed and metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cell_checks.h"
#include "core/config.h"
#include "core/profiling.h"
#include "core/run_manifest.h"
#include "obs/learning.h"
#include "obs/lifecycle.h"
#include "obs/mem_recorder.h"
#include "obs/run_observer.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/sweep_events.h"
#include "spans.h"
#include "trace/trace_io.h"
#include "workloads/registry.h"

namespace {

using namespace csp;
using perfbench::CellLedger;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using perfbench::TraceCounts;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// cspsim's default --scale: every trace is the size a user's first
/// run generates.
constexpr std::uint64_t kScale = 250000;
/// Repetitions of trace generation + save; setup_s is their median.
constexpr int kSetupReps = 11;

/// The replay workloads' traces: pointer chasing, a linked-list
/// micro-benchmark, and streaming.
const std::vector<std::string> kReplayTraces = {"mcf", "list",
                                                "libquantum"};
/// Scratch files (removed on exit) and the traced run's span dumps,
/// relative to the directory the benchmark runs in.
const fs::path kWorkDir = ".bench_work";
const fs::path kOutDir = ".bench_out";
/// Every prefetcher except context, "none" first.
const std::vector<std::string> kBaselines = {
    "none", "stride", "ghb-gdc", "ghb-pcdc", "sms", "markov"};

const std::vector<std::string> kWorkloadNames = {
    "cold_sweep", "replay_context", "replay_baselines"};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

void
usage()
{
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "workloads:";
    for (const std::string &name : kWorkloadNames)
        std::cerr << ' ' << name;
    std::cerr << '\n';
}

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return std::nullopt;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return std::nullopt;
            args.trace = value == "1";
        } else {
            return std::nullopt;
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            return std::nullopt;
    }
    if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(),
                  args.workload) == kWorkloadNames.end() ||
        !(args.seconds > 0.0)) {
        return std::nullopt;
    }
    return args;
}

/** Metrics in print order, each with its unit. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Human-readable lines, then the result object as the last line. */
    void
    print(std::ostream &out, bool correct, std::uint64_t attempted,
          std::uint64_t failed) const
    {
        char buf[64];
        for (const Metric &m : metrics_) {
            std::snprintf(buf, sizeof(buf), "%.6g", m.value);
            out << "# " << m.name << " = " << buf << ' ' << m.unit << '\n';
        }
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            // Full precision; a non-finite value (a ratio over nothing)
            // is printed as 0 rather than as invalid JSON.
            std::snprintf(buf, sizeof(buf), "%.17g",
                          std::isfinite(m.value) ? m.value : 0.0);
            out << (i == 0 ? "" : ", ") << '"' << m.name
                << "\": {\"value\": " << buf << ", \"unit\": \"" << m.unit
                << "\"}";
        }
        out << "}}" << std::endl;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

/** State shared by every phase of one benchmark run. */
struct Bench
{
    Args args;
    SystemConfig config;
    workloads::WorkloadParams params;
    fs::path work;   ///< per-process scratch directory
    unsigned jobs = 1;
    CellLedger ledger;
    /// Failed checks that belong to no single cell.
    std::vector<std::string> problems;
    /// Non-null only while the traced run records spans.
    SpanRecorder *spans = nullptr;
    std::string manifest_json;

    std::uint32_t
    cell(const std::string &label)
    {
        return spans != nullptr ? spans->newCell(label) : 0;
    }
};

/**
 * Moves the calling thread to the next allowed CPU before each timed
 * repetition of single-threaded work, so that a run samples every CPU
 * evenly instead of whichever one the scheduler kept it on (on a
 * shared host, co-tenants slow single CPUs for seconds at a time).
 * Restores the original CPU set on destruction, before any thread pool
 * is created.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(bool enabled)
    {
        CPU_ZERO(&original_);
        if (!enabled ||
            sched_getaffinity(0, sizeof(original_), &original_) != 0) {
            return;
        }
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(original_), &original_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU in turn; a no-op when disabled. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

// ---------------------------------------------------------------- traces

/** A generated trace saved to the work directory. */
struct SavedTrace
{
    std::string workload;
    std::string path;
    TraceCounts counts;
    std::uint64_t records = 0;
    std::uint64_t file_bytes = 0;
};

/** Set-up timings, one sample per repetition. */
struct SetupSamples
{
    std::vector<double> total_s;
    std::vector<double> gen_s;
    std::vector<double> save_s;
};

/**
 * Generate @p names' traces and save them to @p dir, kSetupReps times,
 * each repetition on the next CPU (see CpuRotation). Every repetition
 * must produce the same content digest, and every saved file's header
 * must describe the buffer it was written from.
 */
std::vector<SavedTrace>
prepareTraces(Bench &b, const fs::path &dir,
              const std::vector<std::string> &names, SetupSamples &samples)
{
    fs::create_directories(dir);
    std::vector<SavedTrace> traces(names.size());
    std::vector<std::uint64_t> digests(names.size(), 0);
    CpuRotation rotation(true);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        rotation.next();
        double gen_s = 0.0;
        double save_s = 0.0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::uint32_t cell = b.cell("setup/" + names[i]);
            SavedTrace &saved = traces[i];
            saved.workload = names[i];
            saved.path = (dir / (names[i] + ".csptrace")).string();

            const auto gen_start = Clock::now();
            trace::TraceBuffer buffer;
            {
                ScopedSpan span(b.spans, "workloads.generate", cell);
                buffer = workloads::Registry::builtin()
                             .create(names[i])
                             ->generate(b.params);
            }
            gen_s += secondsSince(gen_start);

            const auto save_start = Clock::now();
            bool saved_ok = false;
            {
                ScopedSpan span(b.spans, "trace.save", cell);
                saved_ok = trace::saveTraceFile(buffer, saved.path);
            }
            save_s += secondsSince(save_start);
            if (!saved_ok)
                throw std::runtime_error("cannot write " + saved.path);

            saved.counts = {buffer.instructions(), buffer.memAccesses()};
            saved.records = buffer.size();
            saved.file_bytes = fs::file_size(saved.path);
            if (rep == 0)
                digests[i] = buffer.contentDigest();
            else if (buffer.contentDigest() != digests[i])
                b.problems.push_back(names[i] +
                                     ": trace generation is not "
                                     "deterministic for one seed");
            trace::TraceFileSummary summary;
            if (trace::readTraceFileSummary(saved.path, summary) !=
                    trace::TraceIoStatus::Ok ||
                summary.records != buffer.size() ||
                summary.instructions != buffer.instructions() ||
                summary.mem_accesses != buffer.memAccesses() ||
                summary.content_digest != buffer.contentDigest()) {
                b.problems.push_back(names[i] +
                                     ": saved trace header does not "
                                     "match the generated trace");
            }
        }
        samples.gen_s.push_back(gen_s);
        samples.save_s.push_back(save_s);
        samples.total_s.push_back(gen_s + save_s);
    }
    return traces;
}

trace::MappedTrace
openTrace(Bench &b, const SavedTrace &saved, std::uint32_t cell)
{
    trace::MappedTrace mapped;
    trace::TraceIoStatus status;
    {
        ScopedSpan span(b.spans, "trace.open", cell);
        status = mapped.open(saved.path);
    }
    if (status != trace::TraceIoStatus::Ok) {
        throw std::runtime_error("cannot map " + saved.path + ": " +
                                 trace::traceIoStatusName(status));
    }
    return mapped;
}

/** One replay of @p trace through a fresh @p prefetcher. */
sim::RunStats
replay(Bench &b, const trace::MappedTrace &trace,
       const std::string &prefetcher, std::uint32_t cell,
       prof::Profiler *profiler = nullptr,
       obs::RunObserver *observer = nullptr,
       stats::Report *report = nullptr)
{
    ScopedSpan span(b.spans, "sim.run", cell);
    auto pf = sim::makePrefetcher(prefetcher, b.config);
    sim::Simulator simulator(b.config);
    simulator.setProfiler(profiler);
    simulator.setObserver(observer);
    sim::RunStats stats = simulator.run(trace, *pf);
    if (report != nullptr)
        *report = simulator.lastReport();
    return stats;
}

// ------------------------------------------------------------- workloads

/** One timed repetition of a workload's timed part. */
struct PassTime
{
    /// Seconds of each separately timed part, in the same order on every
    /// pass: one per replayed cell, or the whole pass.
    std::vector<double> parts;
    /// Set-up paid right before this pass (cold_sweep only), else < 0.
    double setup_seconds = -1.0;

    double
    seconds() const
    {
        double total = 0.0;
        for (double part : parts)
            total += part;
        return total;
    }
};

/**
 * The pass time a run reports: the sum over a pass's parts of each
 * part's median time in @p passes. On a shared host, co-tenants slow
 * this program by up to 1.7x, in spells from a fraction of a second to
 * minutes. A part's median over the whole run follows the share of the
 * run that was slowed; its fastest time (or a low percentile) follows
 * whether a quiet spell happened to occur, which varies far more from
 * run to run. Timing each replayed cell (~0.2 s) on its own gives a run
 * many samples of every part even where whole passes take seconds.
 */
double
medianPass(const std::vector<PassTime> &passes)
{
    if (passes.empty())
        return 0.0;
    PassTime typical;
    for (std::size_t i = 0; i < passes.front().parts.size(); ++i) {
        std::vector<double> samples;
        for (const PassTime &pass : passes)
            samples.push_back(pass.parts.at(i));
        typical.parts.push_back(median(samples));
    }
    return typical.seconds();
}

/** What a sweep's journal and manifest say about one runSweep call. */
struct SweepSample
{
    double trace_gen_s = 0.0;
    double simulate_s = 0.0;
    double worker_busy_frac = 0.0;
    double longest_cell_s = 0.0;
};

/** The parts of a workload the run loops drive. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed preparation; returns its set-up samples. */
    virtual SetupSamples setup(Bench &b) = 0;

    /**
     * The timed part, once. Checks every cell it simulates (after the
     * clock stops). @p profiler is attached only in the traced run.
     */
    virtual PassTime pass(Bench &b, prof::Profiler *profiler) = 0;

    /** Untimed checks that need the passes done; then the speedup. */
    virtual double finish(Bench &b) = 0;

    /** Simulated instructions in one pass, over all its cells. */
    virtual std::uint64_t passInstructions() const = 0;

    /**
     * Sweep engine figures for the traced run's layer report: from the
     * traced passes' journals on cold_sweep, else from one journaled
     * runSweep over the workload's own cells.
     */
    virtual SweepSample sweepSample(Bench &b) = 0;

    /** True when a pass runs on the calling thread alone. */
    virtual bool singleThreaded() const { return true; }
};


/** Parse the cell_end durations out of a csp-events-v1 journal. */
SweepSample
readSweepJournal(const std::string &path, const sim::SweepResult &result,
                 unsigned jobs)
{
    SweepSample sample;
    sample.trace_gen_s = result.manifest.trace_gen_seconds;
    sample.simulate_s = result.manifest.sim_seconds;
    std::ifstream in(path);
    std::string line;
    std::uint64_t busy_ns = 0;
    std::uint64_t longest_ns = 0;
    const std::string key = "\"duration_ns\":";
    while (std::getline(in, line)) {
        if (line.find("\"event\":\"cell_end\"") == std::string::npos)
            continue;
        const std::size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        const std::uint64_t ns =
            std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
        busy_ns += ns;
        longest_ns = std::max(longest_ns, ns);
    }
    if (sample.simulate_s > 0.0) {
        sample.worker_busy_frac = static_cast<double>(busy_ns) /
                                  (jobs * sample.simulate_s * 1e9);
    }
    sample.longest_cell_s = static_cast<double>(longest_ns) / 1e9;
    return sample;
}

/**
 * Run @p workloads x @p prefetchers through runSweep, journaling to
 * @p journal_path unless it is empty; @p seconds gets the call's time.
 */
sim::SweepResult
journaledSweep(Bench &b, const std::vector<std::string> &workloads,
               const std::vector<std::string> &prefetchers,
               sim::SweepOptions options, const std::string &journal_path,
               double &seconds)
{
    sim::SweepEventJournal journal;
    if (!journal_path.empty() && journal.open(journal_path))
        options.journal = &journal;
    const std::uint32_t cell = b.cell("sweep");
    const auto start = Clock::now();
    sim::SweepResult result;
    {
        ScopedSpan span(b.spans, "sim.runSweep", cell);
        result = sim::runSweep(workloads, prefetchers, b.params, b.config,
                               options);
    }
    seconds = secondsSince(start);
    journal.close();
    return result;
}

/** Read every cached trace's header in @p dir, keyed by workload. */
std::map<std::string, TraceCounts>
traceCacheCounts(const fs::path &dir,
                 const std::vector<std::string> &workloads)
{
    // Cache files are named <workload>-<16 hex digits>.csptrace.
    constexpr std::size_t kSuffix = 1 + 16 + 9;
    std::map<std::string, TraceCounts> counts;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string file = entry.path().filename().string();
        for (const std::string &name : workloads) {
            if (file.size() != name.size() + kSuffix ||
                file.compare(0, name.size() + 1, name + "-") != 0) {
                continue;
            }
            trace::TraceFileSummary summary;
            if (trace::readTraceFileSummary(entry.path().string(),
                                            summary) ==
                trace::TraceIoStatus::Ok) {
                counts[name] = {summary.instructions,
                                summary.mem_accesses};
            }
        }
    }
    return counts;
}

/**
 * Check every cell of @p result. @p reference, when non-null, is an
 * earlier run of the same grid whose cells must be bit-identical.
 */
void
checkSweep(Bench &b, const std::string &label,
           const sim::SweepResult &result,
           const std::map<std::string, TraceCounts> &counts,
           const sim::SweepResult *reference)
{
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const sim::CellResult &cell = result.cells[i];
        const std::string cell_label =
            label + "/" + cell.workload + "/" + cell.prefetcher;
        const auto it = counts.find(cell.workload);
        if (!cell.present || it == counts.end()) {
            b.ledger.record(cell_label,
                            {"cell missing or its trace unreadable"});
            continue;
        }
        b.ledger.check(cell_label, cell.prefetcher, cell.stats, it->second,
                       reference != nullptr ? &reference->cells[i].stats
                                            : nullptr);
    }
}

/** Sweep options without caches or progress lines. */
sim::SweepOptions
uncachedSweepOptions(const Bench &b)
{
    sim::SweepOptions options;
    options.verbose = false;
    options.jobs = b.jobs;
    return options;
}

/**
 * cold_sweep: a user's first `cspsim --workloads all --prefetcher all`.
 * Each pass gets fresh, empty result and trace cache directories, so
 * trace generation, both cache writes and longest-first scheduling all
 * do their real work.
 */
class ColdSweep final : public Workload
{
  public:
    /** Nothing to prepare: each pass sets up its own directories. */
    SetupSamples
    setup(Bench &b) override
    {
        dir_ = b.work / "sweep";
        return {};
    }

    PassTime
    pass(Bench &b, prof::Profiler *profiler) override
    {
        // Set-up is what a user does for a cold sweep: wipe the caches
        // the previous pass wrote, then create the empty directories.
        PassTime time;
        double seconds = 0.0;
        const auto setup_start = Clock::now();
        fs::remove_all(dir_);
        fs::create_directories(dir_ / "results");
        fs::create_directories(dir_ / "traces");
        time.setup_seconds = secondsSince(setup_start);

        sim::SweepOptions options = sweepOptions(b);
        options.profile = profiler != nullptr;
        options.profiler_sink = profiler;
        const std::string journal =
            profiler != nullptr ? (b.work / "events.jsonl").string() : "";
        sim::SweepResult result =
            journaledSweep(b, sim::allWorkloads(), sim::paperPrefetchers(),
                           options, journal, seconds);
        time.parts = {seconds};

        counts_ = traceCacheCounts(dir_ / "traces", sim::allWorkloads());
        checkSweep(b, "cold", result, counts_,
                   reference_.has_value() ? &*reference_ : nullptr);
        if (profiler != nullptr)
            samples_.push_back(readSweepJournal(journal, result, b.jobs));
        if (!reference_.has_value()) {
            instructions_ = 0;
            for (const sim::CellResult &cell : result.cells)
                instructions_ += cell.stats.instructions;
            reference_ = std::move(result);
        }
        return time;
    }

    double
    finish(Bench &b) override
    {
        // A warm re-run over the caches the last pass wrote must
        // simulate nothing and return the same cells bit for bit.
        double seconds = 0.0;
        const sim::SweepResult warm =
            journaledSweep(b, sim::allWorkloads(), sim::paperPrefetchers(),
                           sweepOptions(b), "", seconds);
        if (warm.cells_simulated != 0 ||
            warm.cells_cached != warm.cells.size()) {
            b.problems.push_back(
                "warm re-run simulated " +
                std::to_string(warm.cells_simulated) + " cells");
        }
        checkSweep(b, "warm", warm, counts_, &*reference_);
        return reference_->geomeanSpeedup("context");
    }

    std::uint64_t passInstructions() const override { return instructions_; }

    bool singleThreaded() const override { return false; }

    SweepSample
    sweepSample(Bench &) override
    {
        std::vector<double> gen, sim_s, busy, longest;
        for (const SweepSample &s : samples_) {
            gen.push_back(s.trace_gen_s);
            sim_s.push_back(s.simulate_s);
            busy.push_back(s.worker_busy_frac);
            longest.push_back(s.longest_cell_s);
        }
        return {median(gen), median(sim_s), median(busy), median(longest)};
    }

  private:
    sim::SweepOptions
    sweepOptions(const Bench &b) const
    {
        sim::SweepOptions options = uncachedSweepOptions(b);
        options.use_result_cache = true;
        options.use_trace_cache = true;
        options.result_cache_dir = (dir_ / "results").string();
        options.trace_cache_dir = (dir_ / "traces").string();
        return options;
    }

    fs::path dir_; ///< the caches every pass wipes and refills
    std::optional<sim::SweepResult> reference_;
    std::map<std::string, TraceCounts> counts_;
    std::uint64_t instructions_ = 0;
    std::vector<SweepSample> samples_;
};

/** Trace counts keyed by workload name. */
std::map<std::string, TraceCounts>
countsOf(const std::vector<SavedTrace> &traces)
{
    std::map<std::string, TraceCounts> counts;
    for (const SavedTrace &saved : traces)
        counts[saved.workload] = saved.counts;
    return counts;
}

/**
 * replay_context and replay_baselines: pre-generated traces replayed
 * single-threaded from mmap'd files through the timed prefetchers. The
 * untimed prefetchers run once after set-up so that the speedup of
 * context over none can be reported on both.
 */
class ReplayWorkload final : public Workload
{
  public:
    ReplayWorkload(std::vector<std::string> timed,
                   std::vector<std::string> untimed)
        : timed_(std::move(timed)), untimed_(std::move(untimed))
    {}

    SetupSamples
    setup(Bench &b) override
    {
        SetupSamples samples;
        traces_ = prepareTraces(b, b.work / "traces", kReplayTraces,
                                samples);
        for (const SavedTrace &saved : traces_) {
            const std::uint32_t cell = b.cell("untimed/" + saved.workload);
            const trace::MappedTrace mapped = openTrace(b, saved, cell);
            for (const std::string &pf : untimed_) {
                const sim::RunStats stats = replay(b, mapped, pf, cell);
                b.ledger.check(saved.workload + "/" + pf + "#untimed", pf,
                               stats, saved.counts);
                noteIpc(pf, stats);
            }
        }
        return samples;
    }

    PassTime
    pass(Bench &b, prof::Profiler *profiler) override
    {
        // One part per cell; a trace's open is timed with its first cell.
        PassTime time;
        std::vector<sim::RunStats> cells;
        for (const SavedTrace &saved : traces_) {
            const std::uint32_t cell = b.cell(saved.workload);
            auto start = Clock::now();
            const trace::MappedTrace mapped = openTrace(b, saved, cell);
            for (const std::string &pf : timed_) {
                cells.push_back(replay(b, mapped, pf, cell, profiler));
                time.parts.push_back(secondsSince(start));
                start = Clock::now();
            }
        }

        const bool first = reference_.empty();
        for (std::size_t t = 0; t < traces_.size(); ++t) {
            for (std::size_t p = 0; p < timed_.size(); ++p) {
                const std::size_t i = t * timed_.size() + p;
                b.ledger.check(traces_[t].workload + "/" + timed_[p],
                               timed_[p], cells[i], traces_[t].counts,
                               first ? nullptr : &reference_[i]);
                if (first)
                    noteIpc(timed_[p], cells[i]);
            }
        }
        if (first)
            reference_ = std::move(cells);
        return time;
    }

    double
    finish(Bench &) override
    {
        std::vector<double> speedups;
        for (std::size_t t = 0; t < context_ipc_.size(); ++t)
            speedups.push_back(context_ipc_[t] / none_ipc_[t]);
        return sim::geomean(speedups);
    }

    std::uint64_t
    passInstructions() const override
    {
        std::uint64_t total = 0;
        for (const SavedTrace &saved : traces_)
            total += saved.counts.instructions * timed_.size();
        return total;
    }

    SweepSample
    sweepSample(Bench &b) override
    {
        // The same cells through the sweep engine: they must equal the
        // direct replays bit for bit.
        const std::string journal = (b.work / "sweep.jsonl").string();
        double seconds = 0.0;
        const sim::SweepResult result =
            journaledSweep(b, kReplayTraces, timed_,
                           uncachedSweepOptions(b), journal, seconds);
        sim::SweepResult reference;
        for (const sim::RunStats &stats : reference_)
            reference.cells.push_back({"", "", stats, true});
        checkSweep(b, "sweep", result, countsOf(traces_), &reference);
        return readSweepJournal(journal, result, b.jobs);
    }

  private:
    void
    noteIpc(const std::string &pf, const sim::RunStats &stats)
    {
        if (pf == "context")
            context_ipc_.push_back(stats.ipc());
        else if (pf == "none")
            none_ipc_.push_back(stats.ipc());
    }

    std::vector<std::string> timed_;
    std::vector<std::string> untimed_;
    std::vector<SavedTrace> traces_;
    std::vector<sim::RunStats> reference_; ///< first pass, trace-major
    std::vector<double> context_ipc_;      ///< per trace
    std::vector<double> none_ipc_;         ///< per trace
};

/** Append a failure per level whose miss classes do not sum to the
 *  cell's miss counter. */
void
checkMissClasses(const obs::MemRecorder &recorder,
                 const sim::RunStats &stats,
                 std::vector<std::string> &failures)
{
    const auto class_sum = [](const obs::LevelModel &level) {
        std::uint64_t sum = 0;
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(obs::MissClass::Count); ++c)
            sum += level.classCount(static_cast<obs::MissClass>(c));
        return sum;
    };
    if (class_sum(recorder.l1Model()) != stats.l1_misses)
        failures.push_back("L1 miss classes do not sum to l1_misses");
    if (class_sum(recorder.l2Model()) != stats.l2_demand_misses)
        failures.push_back(
            "L2 miss classes do not sum to l2_demand_misses");
}

/** Seconds an observed replay took, in its two parts. */
struct ObservedTime
{
    double replay_s = 0.0; ///< Simulator::run alone
    double export_s = 0.0;
};

/**
 * mcf through context with the lifecycle tracker, learning recorder
 * and memory recorder attached, then their exports written (cspsim's
 * --autopsy-out --learn-out --mem-out path). The cell is checked, and
 * must equal @p reference, the same cell unobserved.
 */
ObservedTime
observedReplay(Bench &b, const SavedTrace &saved,
               const sim::RunStats &reference)
{
    ObservedTime time;
    const std::uint32_t cell = b.cell("observed/" + saved.workload);
    const trace::MappedTrace mapped = openTrace(b, saved, cell);
    obs::PrefetchTracker tracker;
    obs::LearningRecorder::Options learn_options;
    learn_options.snapshot_every =
        std::max<std::uint64_t>(1, saved.counts.mem_accesses / 32);
    obs::LearningRecorder learner(learn_options);
    obs::MemRecorder::Options mem_options;
    mem_options.queue_sample_every =
        std::max<std::uint64_t>(1, saved.counts.mem_accesses / 64);
    obs::MemRecorder memrec(b.config.memory, mem_options);
    obs::RunObserver observer;
    observer.tracker = &tracker;
    observer.learn = &learner;
    observer.mem = &memrec;
    const auto replay_start = Clock::now();
    const sim::RunStats stats =
        replay(b, mapped, "context", cell, nullptr, &observer);
    time.replay_s = secondsSince(replay_start);

    const auto export_start = Clock::now();
    {
        ScopedSpan span(b.spans, "obs.export", cell);
        std::ofstream autopsy_csv(b.work / "autopsy.csv");
        tracker.writeAutopsyCsv(autopsy_csv, "context");
        std::ofstream autopsy_json(b.work / "autopsy.json");
        tracker.writeAutopsyJson(autopsy_json, "context");
        std::ofstream learn(b.work / "learn.json");
        learner.writeLearnJson(learn, b.manifest_json, "context");
        std::ofstream mem(b.work / "mem.json");
        memrec.writeMemJson(mem, b.manifest_json, "context");
        if (!autopsy_csv || !autopsy_json || !learn || !mem)
            throw std::runtime_error("cannot write the observer exports");
    }
    time.export_s = secondsSince(export_start);

    std::vector<std::string> failures =
        perfbench::checkCell("context", stats, saved.counts, &reference);
    checkMissClasses(memrec, stats, failures);
    b.ledger.record(saved.workload + "/context#observed", failures);
    return time;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "cold_sweep")
        return std::make_unique<ColdSweep>();
    if (name == "replay_context")
        return std::make_unique<ReplayWorkload>(
            std::vector<std::string>{"context"},
            std::vector<std::string>{"none"});
    return std::make_unique<ReplayWorkload>(
        kBaselines, std::vector<std::string>{"context"});
}

// ----------------------------------------------------------- layer report

/** Sums over a set of cells for the per-layer ratios. */
struct CellSums
{
    double replay_ns = 0.0; ///< outside timing of the unprofiled run
    std::uint64_t accesses = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    prof::Profiler profile; ///< the profiled run's phase split

    void
    addProfile(const prof::Profiler &p)
    {
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(prof::Phase::Count); ++i) {
            const auto phase = static_cast<prof::Phase>(i);
            profile.add(phase, p.ns(phase), p.calls(phase));
        }
    }

    double
    nsPerCall(prof::Phase phase) const
    {
        return static_cast<double>(profile.ns(phase)) /
               static_cast<double>(profile.calls(phase));
    }
};

/**
 * The traced run's layer report, the same on every workload: the
 * three replay traces through all seven prefetchers, once timed from
 * outside and once with prof::Profiler attached; a decode-only cursor
 * walk of each trace; and one observed replay of mcf through context.
 */
void
layerReport(Bench &b, const std::vector<SavedTrace> &traces,
            const SetupSamples &setup, MetricSet &m)
{
    std::vector<std::string> prefetchers = kBaselines;
    prefetchers.push_back("context");

    std::uint64_t records = 0;
    std::uint64_t file_bytes = 0;
    for (const SavedTrace &saved : traces) {
        records += saved.records;
        file_bytes += saved.file_bytes;
    }
    const double gen_s = median(setup.gen_s);
    m.add("workloads.gen_s", gen_s, "s");
    m.add("workloads.gen_ns_per_record", gen_s * 1e9 / records,
          "ns/record");
    m.add("trace.save_ns_per_record", median(setup.save_s) * 1e9 / records,
          "ns/record");
    m.add("trace.bytes_per_record",
          static_cast<double>(file_bytes) / records, "B/record");

    std::map<std::string, CellSums> by_pf;
    std::vector<double> open_s;
    std::vector<double> decode_ns;
    stats::Report report;
    std::map<std::string, double> context_counts; ///< summed over traces
    double context_accuracy = 0.0;
    sim::RunStats mcf_context;
    double mcf_context_s = 0.0;
    for (const SavedTrace &saved : traces) {
        const std::uint32_t cell = b.cell("layer/" + saved.workload);
        const auto open_start = Clock::now();
        const trace::MappedTrace mapped = openTrace(b, saved, cell);
        open_s.push_back(secondsSince(open_start));

        // Decode alone: the cursor walk every replay pays, with no
        // simulator behind it. Best of three walks.
        double best_ns = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            std::uint64_t seen = 0;
            Addr fold = 0; // consumed below so the decode is not elided
            const auto start = Clock::now();
            {
                ScopedSpan span(b.spans, "trace.decode", cell);
                trace::StreamingTraceSource source(mapped);
                while (const trace::TraceRecord *rec = source.next()) {
                    fold ^= rec->vaddr;
                    ++seen;
                }
            }
            const double ns = secondsSince(start) * 1e9;
            best_ns = rep == 0 ? ns : std::min(best_ns, ns);
            volatile Addr sink = fold;
            (void)sink;
            if (seen != saved.records) {
                b.problems.push_back(saved.workload +
                                     ": decode walk saw " +
                                     std::to_string(seen) + " records");
            }
        }
        decode_ns.push_back(best_ns);

        for (const std::string &pf : prefetchers) {
            CellSums &sums = by_pf[pf];
            // Best of two unprofiled replays: the outside timing.
            sim::RunStats plain;
            double seconds = 0.0;
            for (int rep = 0; rep < 2; ++rep) {
                const auto start = Clock::now();
                const sim::RunStats stats =
                    replay(b, mapped, pf, cell, nullptr, nullptr, &report);
                const double elapsed = secondsSince(start);
                b.ledger.check(saved.workload + "/" + pf + "#layer", pf,
                               stats, saved.counts,
                               rep == 0 ? nullptr : &plain);
                seconds = rep == 0 ? elapsed : std::min(seconds, elapsed);
                plain = stats;
            }
            prof::Profiler profile;
            const sim::RunStats profiled =
                replay(b, mapped, pf, cell, &profile);
            b.ledger.check(saved.workload + "/" + pf + "#profiled", pf,
                           profiled, saved.counts, &plain);

            sums.replay_ns += seconds * 1e9;
            sums.accesses += plain.demand_accesses;
            sums.instructions += plain.instructions;
            sums.cycles += plain.cycles;
            sums.addProfile(profile);
            if (pf != "context")
                continue;
            for (const char *name :
                 {"mem.l1.misses", "mem.l2.demand_misses",
                  "mem.prefetch.issued", "mem.prefetch.dropped",
                  "sim.prefetch.useful_hits", "context.lookups",
                  "context.cst.associations", "context.predictions.real",
                  "context.predictions.shadow"}) {
                context_counts[name] += report.value(name);
            }
            context_accuracy +=
                report.value("context.bandit.accuracy") / traces.size();
            if (saved.workload == "mcf") {
                mcf_context = plain;
                mcf_context_s = seconds;
            }
        }
    }

    double decode_total = 0.0;
    for (const double ns : decode_ns)
        decode_total += ns;
    m.add("trace.decode_ns_per_record", decode_total / records,
          "ns/record");
    double open_total = 0.0;
    for (const double s : open_s)
        open_total += s;
    m.add("trace.open_ms", open_total * 1e3 / open_s.size(), "ms");

    const auto per_access = [](const CellSums &s) {
        return s.replay_ns / static_cast<double>(s.accesses);
    };
    const double none_ns = per_access(by_pf["none"]);
    CellSums all;
    CellSums prefetching;
    for (const std::string &pf : prefetchers) {
        const CellSums &sums = by_pf[pf];
        m.add("sim.replay_ns_per_access." + pf, per_access(sums),
              "ns/access");
        if (pf != "none") {
            m.add("prefetch.extra_ns_per_access." + pf,
                  per_access(sums) - none_ns, "ns/access");
            prefetching.addProfile(sums.profile);
        }
        m.add("cpu.ipc." + pf,
              static_cast<double>(sums.instructions) / sums.cycles,
              "inst/cycle");
        all.addProfile(sums.profile);
        all.accesses += sums.accesses;
    }

    using prof::Phase;
    const double self_ns =
        static_cast<double>(all.profile.ns(Phase::Replay)) -
        static_cast<double>(all.profile.ns(Phase::MemAccess) +
                            all.profile.ns(Phase::MemPrefetch) +
                            all.profile.ns(Phase::PrefetchObserve));
    m.add("sim.replay_self_ns_per_access", self_ns / all.accesses,
          "ns/access");
    m.add("mem.access_ns_per_call", all.nsPerCall(Phase::MemAccess),
          "ns/call");
    m.add("mem.prefetch_ns_per_call",
          prefetching.nsPerCall(Phase::MemPrefetch), "ns/call");
    m.add("prefetch.observe_ns_per_call",
          prefetching.nsPerCall(Phase::PrefetchObserve), "ns/call");
    const CellSums &context = by_pf["context"];
    m.add("prefetch.train_ns_per_call",
          context.nsPerCall(Phase::PrefetchTrain), "ns/call");
    m.add("prefetch.predict_ns_per_call",
          context.nsPerCall(Phase::PrefetchPredict), "ns/call");

    const double kilo_accesses = context.accesses / 1000.0;
    m.add("mem.l1.misses", context_counts["mem.l1.misses"] / kilo_accesses,
          "count/kaccess");
    m.add("mem.l2.demand_misses",
          context_counts["mem.l2.demand_misses"] / kilo_accesses,
          "count/kaccess");
    m.add("mem.prefetch.issued",
          context_counts["mem.prefetch.issued"] / kilo_accesses,
          "count/kaccess");
    m.add("mem.prefetch.dropped",
          context_counts["mem.prefetch.dropped"] / kilo_accesses,
          "count/kaccess");
    m.add("mem.prefetch.useful_frac",
          context_counts["sim.prefetch.useful_hits"] /
              context_counts["mem.prefetch.issued"],
          "ratio");
    for (const char *name :
         {"context.lookups", "context.cst.associations",
          "context.predictions.real", "context.predictions.shadow"}) {
        m.add(name, context_counts[name] / context.accesses,
              "count/access");
    }
    m.add("context.bandit.accuracy", context_accuracy, "ratio");

    // The obs layer: the mcf context cell again, observed.
    for (const SavedTrace &saved : traces) {
        if (saved.workload != "mcf")
            continue;
        const ObservedTime observed =
            observedReplay(b, saved, mcf_context);
        m.add("obs.overhead_x", observed.replay_s / mcf_context_s, "x");
        m.add("obs.export_ms", observed.export_s * 1e3, "ms");
    }
}

/** Print the per-name span totals beside the profiler's phase split. */
void
printSplit(std::ostream &out, const SpanRecorder &spans,
           const prof::Profiler &profile)
{
    char line[160];
    out << "# spans (outside timings), all phases of this run\n";
    for (const auto &[name, totals] : spans.totals()) {
        std::snprintf(line, sizeof(line),
                      "#   %-20s %6llu calls %12.2f ms total %12.2f ms self\n",
                      name.c_str(),
                      static_cast<unsigned long long>(totals.count),
                      totals.total_ns / 1e6, totals.self_ns / 1e6);
        out << line;
    }
    out << "# profiler split of the workload's traced passes\n";
    for (std::size_t i = 0; i < static_cast<std::size_t>(prof::Phase::Count);
         ++i) {
        const auto phase = static_cast<prof::Phase>(i);
        if (profile.calls(phase) == 0)
            continue;
        std::snprintf(line, sizeof(line),
                      "#   %-20s %12llu calls %12.2f ms %10.1f ns/call\n",
                      prof::phaseStatName(phase),
                      static_cast<unsigned long long>(profile.calls(phase)),
                      profile.ns(phase) / 1e6,
                      static_cast<double>(profile.ns(phase)) /
                          profile.calls(phase));
        out << line;
    }
}

// ------------------------------------------------------------------- runs

/**
 * Repeat @p w's timed part for about @p seconds: at least once, and
 * again only while the pass about to start is expected to end in time.
 */
std::vector<PassTime>
timedPasses(Bench &b, Workload &w, double seconds,
            prof::Profiler *profiler = nullptr)
{
    std::vector<PassTime> passes;
    double timed = 0.0;
    CpuRotation rotation(w.singleThreaded());
    const auto start = Clock::now();
    do {
        rotation.next();
        passes.push_back(w.pass(b, profiler));
        timed += passes.back().seconds();
    } while (secondsSince(start) + timed / passes.size() < seconds);
    return passes;
}

/** The end-to-end run: no spans, no profiler. */
void
untracedRun(Bench &b, Workload &w, MetricSet &m)
{
    std::vector<double> setups = w.setup(b).total_s;
    const std::vector<PassTime> passes = timedPasses(b, w, b.args.seconds);
    const double speedup = w.finish(b);

    std::cout << "# " << passes.size() << " timed passes (s):";
    for (const PassTime &pass : passes) {
        if (pass.setup_seconds >= 0.0)
            setups.push_back(pass.setup_seconds);
        std::cout << ' ' << pass.seconds();
    }
    std::cout << '\n';
    const double wall = medianPass(passes);
    m.add("wall_s", wall, "s");
    m.add("setup_s", median(setups), "s");
    m.add("sim_minst_per_s",
          static_cast<double>(w.passInstructions()) / wall / 1e6,
          "Minst/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("context_speedup_geomean", speedup, "x");
}

/**
 * The traced run: untraced passes for a third of --seconds, then as many
 * passes with spans and prof::Profiler attached (trace_overhead_x is
 * the ratio of their medianPass times), then the layer report and
 * the sweep engine figures.
 * Spans are written to .bench_out/spans-<workload>-seed<n>.json.
 */
void
tracedRun(Bench &b, Workload &w, MetricSet &m)
{
    w.setup(b);
    const std::vector<PassTime> plain =
        timedPasses(b, w, b.args.seconds / 3);

    SpanRecorder spans;
    b.spans = &spans;
    prof::Profiler profile;
    std::vector<PassTime> traced;
    {
        CpuRotation rotation(w.singleThreaded());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            rotation.next();
            traced.push_back(w.pass(b, &profile));
        }
    }
    w.finish(b);

    SetupSamples setup;
    const std::vector<SavedTrace> traces =
        prepareTraces(b, b.work / "layer", kReplayTraces, setup);
    layerReport(b, traces, setup, m);
    const SweepSample sweep = w.sweepSample(b);
    m.add("sim.sweep.trace_gen_s", sweep.trace_gen_s, "s");
    m.add("sim.sweep.simulate_s", sweep.simulate_s, "s");
    m.add("sim.sweep.worker_busy_frac", sweep.worker_busy_frac, "ratio");
    m.add("sim.sweep.longest_cell_s", sweep.longest_cell_s, "s");
    m.add("trace_overhead_x",
          medianPass(traced) / medianPass(plain),
          "x");
    b.spans = nullptr;

    fs::create_directories(kOutDir);
    const fs::path path =
        kOutDir / ("spans-" + b.args.workload + "-seed" +
                   std::to_string(b.args.seed) + ".json");
    std::ofstream out(path);
    spans.writeJson(out);
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
    printSplit(std::cout, spans, profile);
    std::cout << "# spans written to " << path.string() << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Args> args = parseArgs(argc, argv);
    if (!args.has_value()) {
        usage();
        return 2;
    }
    Bench b;
    b.args = *args;
    b.params.seed = args->seed;
    b.params.scale = kScale;
    b.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    b.work = kWorkDir /
             ("run-" + std::to_string(static_cast<long>(::getpid())));
    RunManifest manifest = makeRunManifest("perfbench", b.config);
    manifest.seed = args->seed;
    manifest.scale = kScale;
    b.manifest_json = manifest.toJson();

    const std::unique_ptr<Workload> workload =
        makeWorkload(args->workload);
    MetricSet metrics;
    int status = 0;
    try {
        fs::remove_all(b.work);
        fs::create_directories(b.work);
        if (args->trace)
            tracedRun(b, *workload, metrics);
        else
            untracedRun(b, *workload, metrics);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        status = 1;
    }
    std::error_code ignored;
    fs::remove_all(b.work, ignored);
    if (status != 0)
        return status;

    for (const std::string &message : b.ledger.messages())
        std::cerr << "perfbench: check failed: " << message << '\n';
    for (const std::string &problem : b.problems)
        std::cerr << "perfbench: check failed: " << problem << '\n';
    metrics.print(std::cout, b.ledger.failed() == 0 && b.problems.empty(),
                  b.ledger.attempted(), b.ledger.failed());
    return 0;
}
