#include "diff/mem_report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

namespace csp::diff {

namespace {

const char *const kClasses[] = {"compulsory", "pollution", "conflict",
                                "capacity"};

std::string
fmt(double value, int precision = 4)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

std::string
fmtCount(double value)
{
    std::ostringstream out;
    out << static_cast<long long>(value);
    return out.str();
}

/** "count (share%)" cell for the taxonomy tables. */
std::string
share(double count, double total)
{
    std::ostringstream out;
    out << fmtCount(count) << " (";
    out << (total <= 0.0 ? "-"
                         : fmt(100.0 * count / total, 1) + "%")
        << ')';
    return out.str();
}

/** Key under one level's subtree: levelKey("l1", "classes.capacity"). */
std::string
levelKey(const char *level, const std::string &field)
{
    return std::string("mem.") + level + '.' + field;
}

/** Flattened-array element count: longest prefix with "<i>.<probe>". */
std::size_t
arrayCount(const FlatDoc &doc, const std::string &prefix,
           const char *probe)
{
    std::size_t n = 0;
    for (;;) {
        std::ostringstream key;
        key << prefix << '.' << n << '.' << probe;
        if (doc.find(key.str()) == nullptr)
            return n;
        ++n;
    }
}

void
renderTaxonomy(const FlatDoc &doc, const char *level, std::ostream &out)
{
    const double accesses = doc.number(levelKey(level, "accesses"));
    const double classified = doc.number(levelKey(level, "classified"));
    out << level << " miss taxonomy ("
        << fmtCount(accesses) << " accesses, "
        << fmtCount(classified) << " classified misses, miss rate "
        << (accesses <= 0.0 ? "-" : fmt(classified / accesses, 4))
        << ")\n";
    for (const char *cls : kClasses) {
        const double count =
            doc.number(levelKey(level, std::string("classes.") + cls));
        out << "  " << std::setw(11) << cls << "  " << std::setw(24)
            << share(count, classified) << "\n";
    }
}

void
renderReuse(const FlatDoc &doc, std::ostream &out)
{
    out << "reuse distance (LRU stack depth, lines)\n";
    out << "  " << std::setw(6) << "" << std::setw(12) << "samples"
        << std::setw(10) << "mean" << std::setw(10) << "p50"
        << std::setw(10) << "p90" << std::setw(10) << "p99"
        << std::setw(12) << "capacity" << "\n";
    for (const char *level : {"l1", "l2"}) {
        out << "  " << std::setw(6) << level << std::setw(12)
            << fmtCount(doc.number(levelKey(level, "reuse.count")))
            << std::setw(10)
            << fmt(doc.number(levelKey(level, "reuse.mean")), 1)
            << std::setw(10)
            << fmtCount(doc.number(levelKey(level, "reuse.p50")))
            << std::setw(10)
            << fmtCount(doc.number(levelKey(level, "reuse.p90")))
            << std::setw(10)
            << fmtCount(doc.number(levelKey(level, "reuse.p99")))
            << std::setw(12)
            << fmtCount(doc.number(levelKey(level, "capacity_lines")))
            << "\n";
    }
}

void
renderSets(const FlatDoc &doc, std::ostream &out,
           const MemReportOptions &options)
{
    out << "set pressure (hottest sets by evictions)\n";
    for (const char *level : {"l1", "l2"}) {
        const double evictions =
            doc.number(levelKey(level, "sets.evictions"));
        const double demand =
            doc.number(levelKey(level, "sets.fills_demand"));
        const double prefetch =
            doc.number(levelKey(level, "sets.fills_prefetch"));
        const double fills = demand + prefetch;
        out << "  " << level << ": " << fmtCount(evictions)
            << " evictions across "
            << fmtCount(doc.number(levelKey(level, "sets.count")))
            << " sets, demand fill share "
            << (fills <= 0.0 ? "-" : fmt(demand / fills, 4)) << "\n";
        const std::size_t top = std::min(
            options.max_sets,
            arrayCount(doc, levelKey(level, "sets.top"), "set"));
        for (std::size_t i = 0; i < top; ++i) {
            std::ostringstream prefix;
            prefix << "mem." << level << ".sets.top." << i << '.';
            out << "    set " << std::setw(6)
                << fmtCount(doc.number(prefix.str() + "set"))
                << "  evictions " << std::setw(10)
                << fmtCount(doc.number(prefix.str() + "evictions"))
                << "  demand share "
                << fmt(doc.number(prefix.str() + "demand_share"), 4)
                << "\n";
        }
    }
}

void
renderPollution(const FlatDoc &doc, std::ostream &out,
                const MemReportOptions &options)
{
    out << "pollution attribution (prefetch issuer -> displaced demand)\n";
    for (const char *level : {"l1", "l2"}) {
        const std::string prefix =
            std::string("mem.pollution.") + level + '.';
        const double attributed = doc.number(prefix + "attributed");
        const double unattributed = doc.number(prefix + "unattributed");
        out << "  " << level << ": " << fmtCount(attributed)
            << " attributed, " << fmtCount(unattributed)
            << " unattributed\n";
    }
    const std::size_t pairs = arrayCount(doc, "mem.pollution.pairs",
                                         "count");
    const std::size_t shown = std::min(options.max_pairs, pairs);
    for (std::size_t i = 0; i < shown; ++i) {
        std::ostringstream prefix;
        prefix << "mem.pollution.pairs." << i << '.';
        out << "    L" << fmtCount(doc.number(prefix.str() + "level"))
            << "  issuer " << std::setw(14)
            << doc.text(prefix.str() + "issuer_pc", "?") << "  demand "
            << std::setw(14) << doc.text(prefix.str() + "demand_pc", "?")
            << "  misses " << std::setw(8)
            << fmtCount(doc.number(prefix.str() + "count")) << "\n";
    }
    const double overflow = doc.number("mem.pollution.pairs_overflow");
    if (overflow > 0.0) {
        out << "    (" << fmtCount(overflow)
            << " pollution misses beyond the pair-table bound)\n";
    }
}

void
renderPcs(const FlatDoc &doc, std::ostream &out,
          const MemReportOptions &options)
{
    const std::size_t pcs = arrayCount(doc, "mem.pc", "pc");
    if (pcs == 0)
        return;
    out << "hottest demand PCs (by L1 misses, "
        << fmtCount(doc.number("mem.pc_tracked")) << " tracked)\n";
    out << "  " << std::setw(14) << "pc" << std::setw(12) << "accesses"
        << std::setw(12) << "l1_misses" << std::setw(12) << "l2_misses"
        << std::setw(12) << "reuse p50" << "\n";
    const std::size_t shown = std::min(options.max_pcs, pcs);
    for (std::size_t i = 0; i < shown; ++i) {
        std::ostringstream prefix;
        prefix << "mem.pc." << i << '.';
        out << "  " << std::setw(14) << doc.text(prefix.str() + "pc", "?")
            << std::setw(12)
            << fmtCount(doc.number(prefix.str() + "accesses"))
            << std::setw(12)
            << fmtCount(doc.number(prefix.str() + "l1_misses"))
            << std::setw(12)
            << fmtCount(doc.number(prefix.str() + "l2_misses"))
            << std::setw(12)
            << fmtCount(doc.number(prefix.str() + "reuse.p50")) << "\n";
    }
}

void
renderTimeline(const FlatDoc &doc, std::ostream &out,
               const MemReportOptions &options)
{
    const std::size_t samples = arrayCount(doc, "mem.timeline",
                                           "access");
    if (samples == 0)
        return;
    out << "queue-depth timeline (" << samples << " samples, every "
        << fmtCount(doc.number("mem.interval")) << " accesses)\n";
    out << "  " << std::setw(12) << "access" << std::setw(12) << "cycle"
        << std::setw(10) << "l1_mshr" << std::setw(10) << "l2_mshr"
        << std::setw(14) << "dram_backlog" << "\n";
    const std::size_t rows = std::min(options.max_timeline, samples);
    for (std::size_t r = 0; r < rows; ++r) {
        // Evenly subsample, always keeping the final sample.
        const std::size_t i =
            rows <= 1 ? samples - 1 : r * (samples - 1) / (rows - 1);
        std::ostringstream prefix;
        prefix << "mem.timeline." << i << '.';
        out << "  " << std::setw(12)
            << fmtCount(doc.number(prefix.str() + "access"))
            << std::setw(12)
            << fmtCount(doc.number(prefix.str() + "cycle"))
            << std::setw(10)
            << fmtCount(doc.number(prefix.str() + "l1_mshr"))
            << std::setw(10)
            << fmtCount(doc.number(prefix.str() + "l2_mshr"))
            << std::setw(14)
            << fmtCount(doc.number(prefix.str() + "dram_backlog"))
            << "\n";
    }
}

void
renderShadowCost(const FlatDoc &doc, std::ostream &out)
{
    out << "shadow models\n";
    out << "  shadow hits        l1 "
        << fmtCount(doc.number("mem.l1.shadow_hits")) << "   l2 "
        << fmtCount(doc.number("mem.l2.shadow_hits")) << "\n";
    out << "  stack live lines   l1 "
        << fmtCount(doc.number("mem.shadow.l1_live_lines")) << "   l2 "
        << fmtCount(doc.number("mem.shadow.l2_live_lines"))
        << "   compactions "
        << fmtCount(doc.number("mem.shadow.compactions")) << "\n";
}

void
renderCompare(const FlatDoc &a, const std::string &label_a,
              const FlatDoc &b, const std::string &label_b,
              std::ostream &out)
{
    out << "comparison\n";
    out << "  " << std::setw(22) << "" << std::setw(14) << "A"
        << std::setw(14) << "B" << std::setw(14) << "delta" << "\n";
    const auto row = [&](const std::string &label,
                         const std::string &name) {
        const double va = a.number(name);
        const double vb = b.number(name);
        out << "  " << std::setw(22) << label << std::setw(14)
            << fmtCount(va) << std::setw(14) << fmtCount(vb)
            << std::setw(14) << fmtCount(vb - va) << "\n";
    };
    for (const char *level : {"l1", "l2"}) {
        row(std::string(level) + " classified",
            levelKey(level, "classified"));
        for (const char *cls : kClasses) {
            row(std::string(level) + ' ' + cls,
                levelKey(level, std::string("classes.") + cls));
        }
    }
    row("pollution attributed", "mem.pollution.l1.attributed");
    out << "  A = " << label_a << "\n  B = " << label_b << "\n";
}

void
renderHeader(const FlatDoc &doc, const std::string &label,
             std::ostream &out)
{
    out << "== " << label << " ==\n";
    out << "prefetcher " << doc.text("prefetcher", "?") << "   workload "
        << doc.text("manifest.workloads", "?") << "   seed "
        << doc.text("manifest.seed", "?") << "\n";
}

void
renderOne(const FlatDoc &doc, const std::string &label,
          std::ostream &out, const MemReportOptions &options)
{
    renderHeader(doc, label, out);
    renderTaxonomy(doc, "l1", out);
    renderTaxonomy(doc, "l2", out);
    renderReuse(doc, out);
    renderSets(doc, out, options);
    renderPollution(doc, out, options);
    renderPcs(doc, out, options);
    renderTimeline(doc, out, options);
    renderShadowCost(doc, out);
}

} // namespace

bool
isMemDoc(const FlatDoc &doc, std::string *error)
{
    const FlatValue *schema = doc.find("schema");
    if (schema == nullptr || schema->text != "csp-mem-v1") {
        if (error != nullptr)
            *error = "not a csp-mem-v1 document (missing or "
                     "unexpected \"schema\")";
        return false;
    }
    for (const char *key : {"mem.l1.classes.compulsory",
                            "mem.l2.classes.compulsory",
                            "mem.l1.classified", "mem.accesses"}) {
        if (doc.find(key) == nullptr) {
            if (error != nullptr)
                *error = std::string("missing required key \"") + key +
                         '"';
            return false;
        }
    }
    return true;
}

bool
renderMemReport(const FlatDoc &a, const std::string &label_a,
                const FlatDoc *b, const std::string &label_b,
                std::ostream &out, std::string *error,
                const MemReportOptions &options)
{
    if (!isMemDoc(a, error))
        return false;
    if (b != nullptr && !isMemDoc(*b, error))
        return false;
    renderOne(a, label_a, out, options);
    if (b != nullptr) {
        out << "\n";
        renderOne(*b, label_b, out, options);
        out << "\n";
        renderCompare(a, label_a, *b, label_b, out);
    }
    return true;
}

} // namespace csp::diff
