#include "cell_checks.h"

#include <numeric>

#include "sim/result_cache.h"

namespace perfbench {

namespace {

std::string
mismatch(const char *what, std::uint64_t got, std::uint64_t want)
{
    return std::string(what) + " = " + std::to_string(got) +
           ", expected " + std::to_string(want);
}

} // namespace

std::vector<std::string>
checkCell(const std::string &prefetcher, const csp::sim::RunStats &stats,
          const TraceCounts &trace, const csp::sim::RunStats *reference)
{
    std::vector<std::string> failures;
    const auto expect_eq = [&failures](const char *what,
                                       std::uint64_t got,
                                       std::uint64_t want) {
        if (got != want)
            failures.push_back(mismatch(what, got, want));
    };

    const std::uint64_t class_sum = std::accumulate(
        stats.classes.begin(), stats.classes.end(), std::uint64_t{0});
    expect_eq("sum of Figure-9 classes", class_sum,
              stats.demand_accesses);

    if (stats.l2_demand_misses > stats.l1_misses ||
        stats.l1_misses > stats.demand_accesses) {
        failures.push_back(
            "miss ordering broken: l2_demand_misses " +
            std::to_string(stats.l2_demand_misses) + ", l1_misses " +
            std::to_string(stats.l1_misses) + ", demand_accesses " +
            std::to_string(stats.demand_accesses));
    }

    expect_eq("hierarchy.demand_accesses",
              stats.hierarchy.demand_accesses, stats.demand_accesses);
    expect_eq("hierarchy.l1_misses", stats.hierarchy.l1_misses,
              stats.l1_misses);
    expect_eq("hierarchy.l2_demand_misses",
              stats.hierarchy.l2_demand_misses, stats.l2_demand_misses);
    expect_eq("hierarchy.prefetchesNeverHit()",
              stats.hierarchy.prefetchesNeverHit(),
              stats.prefetch_never_hit);

    expect_eq("instructions", stats.instructions, trace.instructions);
    expect_eq("demand_accesses", stats.demand_accesses,
              trace.mem_accesses);

    if (prefetcher == "none") {
        expect_eq("prefetches issued by none",
                  stats.hierarchy.prefetches_issued, 0);
    }
    if (reference != nullptr && csp::sim::runStatsDigest(stats) !=
                                    csp::sim::runStatsDigest(*reference)) {
        failures.push_back("runStatsDigest differs from the reference run");
    }
    return failures;
}

void
CellLedger::record(const std::string &label,
                   const std::vector<std::string> &failures)
{
    ++attempted_;
    if (failures.empty())
        return;
    ++failed_;
    for (const std::string &failure : failures)
        messages_.push_back(label + ": " + failure);
}

void
CellLedger::check(const std::string &label, const std::string &prefetcher,
                  const csp::sim::RunStats &stats, const TraceCounts &trace,
                  const csp::sim::RunStats *reference)
{
    record(label, checkCell(prefetcher, stats, trace, reference));
}

} // namespace perfbench
