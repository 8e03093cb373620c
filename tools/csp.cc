/**
 * @file
 * csp — the report tool: one binary whose subcommands read the
 * artefacts cspsim writes.
 *
 *   csp diff A B        classify every delta between two run artefacts
 *                       (stats JSON, sweep/interval CSV, bench
 *                       scorecard) as correctness, timing or provenance
 *   csp learn A [B]     learning curves and CST health (--learn-out)
 *   csp mem A [B]       miss taxonomy, set pressure, pollution and
 *                       queue depth (--mem-out)
 *   csp top JOURNAL     status, --follow or --summary of a sweep journal
 *   csp merge SHARD...  reassemble sharded sweep artefacts and journals
 *
 * Exit codes (CI contract): diff 0 clean, 1 correctness drift (or
 * --require-same-input failed), 2 timing band exceeded; learn, mem and
 * top 0 rendered; all four 3 on a usage or file/format error. merge 0
 * merged, 1 on anything else. An unknown subcommand exits 3. Reports
 * are pure functions of the input bytes (`csp top` takes every
 * timestamp from the journal), so tests golden them.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/content_store.h"
#include "diff/csp_diff.h"
#include "diff/learn_report.h"
#include "diff/mem_report.h"
#include "diff/sweep_report.h"
#include "sim/sweep_io.h"

namespace {

using namespace csp;

const char *const kUsage =
    "usage: csp COMMAND [ARGS...]\n"
    "  diff A B          compare two run artefacts (exit 0/1/2/3)\n"
    "  learn A [B]       render learn.json reports\n"
    "  mem A [B]         render mem.json reports\n"
    "  top JOURNAL       watch or summarise a sweep journal\n"
    "  merge SHARD...    reassemble sharded sweep artefacts\n"
    "Run `csp COMMAND --help` for a command's options.\n";

/**
 * One subcommand's argument cursor: walks argv past the subcommand
 * name, and prefixes every diagnostic with "csp NAME: ". A refusal
 * returns (or, for a missing option value, exits with) the
 * subcommand's error code.
 */
class Args
{
  public:
    Args(const char *name, int error_exit, int argc, char **argv)
        : name_(name), error_exit_(error_exit), argc_(argc), argv_(argv)
    {}

    /** Advance to the next argument; false past the last one. */
    bool next() { return ++i_ < argc_; }

    std::string arg() const { return argv_[i_]; }

    bool help() const { return arg() == "--help" || arg() == "-h"; }

    /** The value following the current option. */
    const char *
    value()
    {
        if (i_ + 1 >= argc_) {
            fail(std::string("missing value for ") + argv_[i_]);
            std::exit(error_exit_);
        }
        return argv_[++i_];
    }

    std::size_t count() { return std::strtoull(value(), nullptr, 10); }

    /** Take the current argument as the next of at most @p max
     *  positionals; false (after the diagnostic) for an unknown
     *  option or one positional too many. */
    bool
    positional(std::vector<std::string> &paths, std::size_t max)
    {
        const std::string current = arg();
        if (!current.empty() && current[0] == '-') {
            fail("unknown option " + current + " (try --help)");
            return false;
        }
        if (paths.size() >= max) {
            fail("too many positional arguments");
            return false;
        }
        paths.push_back(current);
        return true;
    }

    /** Print "csp NAME: @p what"; returns the error exit code. */
    int
    fail(const std::string &what) const
    {
        std::cerr << "csp " << name_ << ": " << what << "\n";
        return error_exit_;
    }

    int errorExit() const { return error_exit_; }

    /** Print @p report, copy it to @p path when one was given (parent
     *  directories created), and return @p code — or the error code
     *  when the copy cannot be written. */
    int
    finish(const std::string &report, const std::string &path,
           int code) const
    {
        std::cout << report;
        if (path.empty())
            return code;
        ensureDirectories(
            std::filesystem::path(path).parent_path().string());
        std::ofstream out(path);
        if (!out)
            return fail("cannot write " + path);
        out << report;
        return code;
    }

  private:
    const char *name_;
    int error_exit_;
    int argc_;
    char **argv_;
    int i_ = 0;
};

/** How a subcommand flattens its input: diff::parseFlat (JSON or
 *  CSV, for diff) or parseJsonFlat (JSON only, for learn and mem). */
using FlatParser = bool (*)(const std::string &, FlatDoc &,
                            std::string *);

/** Read each of @p paths and flatten it into @p docs with @p parse;
 *  false, after the diagnostic, at the first unreadable or malformed
 *  one. */
bool
loadDocs(const Args &args, const std::vector<std::string> &paths,
         FlatParser parse, FlatDoc *docs)
{
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::string text;
        std::string error;
        if (!readFileToString(paths[i], text)) {
            args.fail("cannot read " + paths[i]);
            return false;
        }
        if (!parse(text, docs[i], &error)) {
            args.fail(paths[i] + ": " + error);
            return false;
        }
    }
    return true;
}

const char *const kDiffUsage =
    "usage: csp diff A B [options]\n"
    "  A, B                 run artefacts: stats JSON, sweep or\n"
    "                       interval CSV, or bench scorecard JSON\n"
    "  --timing-tol F       relative band for timing/throughput\n"
    "                       stats (default 0.05 = 5%)\n"
    "  --float-tol F        relative tolerance for non-integer\n"
    "                       correctness stats (default 0 =\n"
    "                       bit-identical; pass 1e-6 when A and B\n"
    "                       come from different compilers)\n"
    "  --lax-timing         report timing excursions but never\n"
    "                       fail on them (cross-machine diffs)\n"
    "  --require-same-input fail when config/trace digests or the\n"
    "                       seed differ between the manifests\n"
    "  --max-rows N         findings shown in the report "
    "(default 40)\n"
    "  --report FILE        also write the report to FILE\n"
    "                       (parent directories are created)\n";

int
runDiff(Args &args)
{
    std::vector<std::string> paths;
    std::string report_path;
    std::size_t max_rows = 40;
    diff::DiffOptions options;
    while (args.next()) {
        const std::string arg = args.arg();
        if (args.help()) {
            std::cout << kDiffUsage;
            return 0;
        } else if (arg == "--timing-tol") {
            options.timing_tolerance = std::atof(args.value());
        } else if (arg == "--float-tol") {
            options.float_tolerance = std::atof(args.value());
        } else if (arg == "--lax-timing") {
            options.fail_on_timing = false;
        } else if (arg == "--require-same-input") {
            options.require_same_input = true;
        } else if (arg == "--max-rows") {
            max_rows = args.count();
        } else if (arg == "--report") {
            report_path = args.value();
        } else if (!args.positional(paths, 2)) {
            return args.errorExit();
        }
    }
    if (paths.size() != 2) {
        std::cout << kDiffUsage;
        return args.errorExit();
    }

    FlatDoc docs[2];
    if (!loadDocs(args, paths, diff::parseFlat, docs))
        return args.errorExit();
    const diff::DiffResult result =
        diff::diffDocs(docs[0], docs[1], options);
    std::ostringstream report;
    report << "A: " << paths[0] << "\nB: " << paths[1] << "\n";
    result.writeReport(report, max_rows);
    return args.finish(report.str(), report_path, result.exitCode());
}

const char *const kLearnUsage =
    "usage: csp learn A [B] [options]\n"
    "  A [B]            learn.json files from cspsim --learn-out\n"
    "                   (two files appends a comparison section)\n"
    "  --rows N         learning-curve rows shown (default 16)\n"
    "  --contexts N     top contexts shown (default 8)\n"
    "  --report FILE    also write the report to FILE (parent\n"
    "                   directories are created)\n";

const char *const kMemUsage =
    "usage: csp mem A [B] [options]\n"
    "  A [B]            mem.json files from cspsim --mem-out\n"
    "                   (two files appends a comparison section)\n"
    "  --sets N         hot sets shown per level (default 4)\n"
    "  --pairs N        pollution pairs shown (default 8)\n"
    "  --pcs N          demand PCs shown (default 8)\n"
    "  --timeline N     timeline rows shown (default 8)\n"
    "  --report FILE    also write the report to FILE (parent\n"
    "                   directories are created)\n";

/** The shared shape of learn and mem: one or two JSON documents
 *  (JSON only, so non-JSON input reports the JSON parse error), a
 *  renderer, an optional --report copy. */
template <typename Render>
int
renderDocs(Args &args, const std::vector<std::string> &paths,
           const char *usage, const std::string &report_path,
           Render &&render)
{
    if (paths.empty()) {
        std::cout << usage;
        return args.errorExit();
    }
    FlatDoc docs[2];
    if (!loadDocs(args, paths, parseJsonFlat, docs))
        return args.errorExit();
    std::ostringstream report;
    std::string error;
    if (!render(docs[0], paths[0], paths.size() > 1 ? &docs[1] : nullptr,
                paths.size() > 1 ? paths[1] : std::string(), report,
                &error))
        return args.fail(error);
    return args.finish(report.str(), report_path, 0);
}

int
runLearn(Args &args)
{
    std::vector<std::string> paths;
    std::string report_path;
    diff::LearnReportOptions options;
    while (args.next()) {
        const std::string arg = args.arg();
        if (args.help()) {
            std::cout << kLearnUsage;
            return 0;
        } else if (arg == "--rows") {
            options.max_rows = args.count();
        } else if (arg == "--contexts") {
            options.max_contexts = args.count();
        } else if (arg == "--report") {
            report_path = args.value();
        } else if (!args.positional(paths, 2)) {
            return args.errorExit();
        }
    }
    return renderDocs(
        args, paths, kLearnUsage, report_path,
        [&](const FlatDoc &a, const std::string &label_a,
            const FlatDoc *b, const std::string &label_b,
            std::ostream &out, std::string *error) {
            return diff::renderLearnReport(a, label_a, b, label_b, out,
                                           error, options);
        });
}

int
runMem(Args &args)
{
    std::vector<std::string> paths;
    std::string report_path;
    diff::MemReportOptions options;
    while (args.next()) {
        const std::string arg = args.arg();
        if (args.help()) {
            std::cout << kMemUsage;
            return 0;
        } else if (arg == "--sets") {
            options.max_sets = args.count();
        } else if (arg == "--pairs") {
            options.max_pairs = args.count();
        } else if (arg == "--pcs") {
            options.max_pcs = args.count();
        } else if (arg == "--timeline") {
            options.max_timeline = args.count();
        } else if (arg == "--report") {
            report_path = args.value();
        } else if (!args.positional(paths, 2)) {
            return args.errorExit();
        }
    }
    return renderDocs(
        args, paths, kMemUsage, report_path,
        [&](const FlatDoc &a, const std::string &label_a,
            const FlatDoc *b, const std::string &label_b,
            std::ostream &out, std::string *error) {
            return diff::renderMemReport(a, label_a, b, label_b, out,
                                         error, options);
        });
}

const char *const kTopUsage =
    "usage: csp top JOURNAL [options]\n"
    "  JOURNAL          csp-events-v1 JSONL file from\n"
    "                   cspsim --events-out (or a merged journal\n"
    "                   from csp merge --events-out)\n"
    "  --summary        post-hoc report: percentiles, warm-path\n"
    "                   attribution, stragglers, workers\n"
    "  --follow         re-read and redraw the status snapshot\n"
    "                   until the journal has a sweep_end\n"
    "  --interval-ms N  follow-mode poll interval (default 500)\n"
    "  --stragglers N   straggler rows in --summary (default 8)\n"
    "  --report FILE    also write the output to FILE (parent\n"
    "                   directories are created)\n";

/** Parse the journal at @p path; tolerate a torn final line in follow
 *  mode by retrying without it (the writer appends whole lines
 *  atomically, but a reader can still race the kernel buffer). */
bool
loadJournal(const std::string &path, bool tolerate_tail,
            diff::SweepJournal &out, std::string &error)
{
    std::string text;
    if (!readFileToString(path, text)) {
        error = "cannot read " + path;
        return false;
    }
    if (diff::parseJournal(text, out, &error))
        return true;
    if (!tolerate_tail)
        return false;
    const std::size_t cut = text.find_last_of('\n');
    if (cut == std::string::npos)
        return false;
    text.resize(cut + 1);
    return diff::parseJournal(text, out, &error);
}

int
runTop(Args &args)
{
    std::vector<std::string> paths;
    std::string report_path;
    bool summary = false;
    bool follow = false;
    unsigned interval_ms = 500;
    diff::SweepReportOptions options;
    while (args.next()) {
        const std::string arg = args.arg();
        if (args.help()) {
            std::cout << kTopUsage;
            return 0;
        } else if (arg == "--summary") {
            summary = true;
        } else if (arg == "--follow") {
            follow = true;
        } else if (arg == "--interval-ms") {
            interval_ms = static_cast<unsigned>(args.count());
        } else if (arg == "--stragglers") {
            options.max_stragglers = args.count();
        } else if (arg == "--report") {
            report_path = args.value();
        } else if (!args.positional(paths, 1)) {
            return args.errorExit();
        }
    }
    if (paths.empty()) {
        std::cout << kTopUsage;
        return args.errorExit();
    }
    const std::string &journal_path = paths.front();
    if (summary && follow)
        return args.fail("--summary and --follow are exclusive");

    while (follow) {
        diff::SweepJournal journal;
        std::string error;
        if (!loadJournal(journal_path, /*tolerate_tail=*/true, journal,
                         error))
            return args.fail(error);
        std::ostringstream status;
        if (!diff::renderSweepStatus(journal, status, &error)) {
            // The writer may not have flushed sweep_start yet; keep
            // polling rather than failing a race.
            std::cout << "csp top: waiting for sweep_start (" << error
                      << ")\n";
        } else {
            std::cout << status.str();
        }
        if (journal.last("sweep_end") != nullptr)
            return 0;
        std::cout.flush();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
        std::cout << "\n";
    }

    diff::SweepJournal journal;
    std::string error;
    if (!loadJournal(journal_path, /*tolerate_tail=*/false, journal,
                     error))
        return args.fail(error);
    std::ostringstream report;
    const bool ok =
        summary
            ? diff::renderSweepSummary(journal, report, &error, options)
            : diff::renderSweepStatus(journal, report, &error);
    if (!ok)
        return args.fail(journal_path + ": " + error);
    return args.finish(report.str(), report_path, 0);
}

const char *const kMergeUsage =
    "usage: csp merge SHARD.json... [options]\n"
    "  --out FILE         write the merged csp-sweep-v2 artefact\n"
    "  --csv FILE         write the merged cell CSV (byte-identical\n"
    "                     to an unsharded run's stdout CSV)\n"
    "  --journal FILE     a shard's csp-events-v1 journal (repeat\n"
    "                     once per shard; from cspsim --events-out)\n"
    "  --events-out FILE  write the merged time-ordered journal\n"
    "                     (render with csp top)\n"
    "Without --csv the merged CSV goes to stdout.\n"
    "Exits 1 when shards disagree on what was swept, a cell is\n"
    "owned twice, coverage is incomplete, or a journal's identity\n"
    "does not match the artefacts.\n";

/**
 * Fold `cspsim --shard I/N --sweep-out` artefacts back into one
 * sweep. The merged CSV is byte-identical to an unsharded run (cell
 * stats do not depend on which process computed them); shards whose
 * manifests disagree on what was swept are refused. With --journal
 * (one per shard) the shards' journals merge into one time-ordered
 * journal, refused when a sweep_start identity does not match the
 * artefacts.
 */
int
runMerge(Args &args)
{
    std::vector<std::string> shard_paths;
    std::vector<std::string> journal_paths;
    std::string out_path;
    std::string csv_path;
    std::string events_out_path;
    while (args.next()) {
        const std::string arg = args.arg();
        if (args.help()) {
            std::cout << kMergeUsage;
            return 0;
        } else if (arg == "--out") {
            out_path = args.value();
        } else if (arg == "--csv") {
            csv_path = args.value();
        } else if (arg == "--journal") {
            journal_paths.push_back(args.value());
        } else if (arg == "--events-out") {
            events_out_path = args.value();
        } else if (!args.positional(
                       shard_paths,
                       std::numeric_limits<std::size_t>::max())) {
            return args.errorExit();
        }
    }
    if (shard_paths.empty()) {
        std::cout << kMergeUsage;
        return args.errorExit();
    }

    std::vector<sim::SweepResult> shards;
    shards.reserve(shard_paths.size());
    std::string error;
    for (const std::string &path : shard_paths) {
        sim::SweepResult shard;
        if (!sim::readSweepJson(path, shard, &error))
            return args.fail(path + ": " + error);
        shards.push_back(std::move(shard));
    }
    sim::SweepResult merged;
    if (!sim::mergeSweeps(shards, merged, &error))
        return args.fail(error);

    if (!journal_paths.empty() || !events_out_path.empty()) {
        if (journal_paths.empty() || events_out_path.empty()) {
            return args.fail("--journal and --events-out go together "
                             "(one --journal per shard, one "
                             "--events-out for the merged journal)");
        }
        // The artefacts are the source of truth for what was swept;
        // the journals must agree with them before being merged.
        diff::JournalIdentity expect;
        expect.config_digest = merged.manifest.config_digest;
        expect.seed = merged.manifest.seed;
        expect.scale = merged.manifest.scale;
        expect.placement = merged.manifest.placement;
        expect.workloads = merged.manifest.workloads;
        expect.prefetchers = merged.manifest.prefetchers;
        expect.shard_count = shards.front().shard_count;
        std::ostringstream journal;
        if (!diff::mergeJournals(journal_paths, &expect, journal,
                                 &error))
            return args.fail(error);
        std::ofstream events(events_out_path, std::ios::binary);
        if (!events)
            return args.fail("cannot write " + events_out_path);
        events << journal.str();
    }

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out)
            return args.fail("cannot write " + out_path);
        sim::writeSweepJson(out, merged);
    }
    if (csv_path.empty()) {
        sim::writeSweepCsv(std::cout, merged);
        return 0;
    }
    std::ofstream csv(csv_path);
    if (!csv)
        return args.fail("cannot write " + csv_path);
    sim::writeSweepCsv(csv, merged);
    return 0;
}

struct Command
{
    const char *name;
    int error_exit;
    int (*run)(Args &);
};

const Command kCommands[] = {
    {"diff", 3, runDiff}, {"learn", 3, runLearn}, {"mem", 3, runMem},
    {"top", 3, runTop},   {"merge", 1, runMerge},
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "";
    if (name == "--help" || name == "-h") {
        std::cout << kUsage;
        return 0;
    }
    for (const Command &command : kCommands) {
        if (name == command.name) {
            Args args(command.name, command.error_exit, argc - 1,
                      argv + 1);
            return command.run(args);
        }
    }
    if (!name.empty())
        std::cerr << "csp: unknown command '" << name << "'\n";
    std::cerr << kUsage;
    return 3;
}
