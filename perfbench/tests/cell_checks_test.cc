// Negative tests for the benchmark's output checks: a corrupted
// RunStats must be reported, and the ledger must count it as a failed
// cell.

#include <gtest/gtest.h>

#include "cell_checks.h"

namespace {

using csp::sim::AccessClass;
using csp::sim::RunStats;
using perfbench::CellLedger;
using perfbench::checkCell;
using perfbench::TraceCounts;

constexpr TraceCounts kTrace{1000, 400};

/** A consistent cell: every identity the checker tests holds. */
RunStats
consistentStats()
{
    RunStats stats;
    stats.instructions = kTrace.instructions;
    stats.cycles = 2500;
    stats.demand_accesses = kTrace.mem_accesses;
    stats.l1_misses = 120;
    stats.l2_demand_misses = 60;
    stats.classes[static_cast<std::size_t>(AccessClass::HitPrefetchedLine)] =
        40;
    stats.classes[static_cast<std::size_t>(AccessClass::ShorterWait)] = 10;
    stats.classes[static_cast<std::size_t>(AccessClass::NonTimely)] = 5;
    stats.classes[static_cast<std::size_t>(AccessClass::MissNotPrefetched)] =
        105;
    stats.classes[static_cast<std::size_t>(AccessClass::HitOlderDemand)] =
        240;
    stats.prefetch_never_hit = 7;
    stats.hierarchy.demand_accesses = stats.demand_accesses;
    stats.hierarchy.l1_misses = stats.l1_misses;
    stats.hierarchy.l2_demand_misses = stats.l2_demand_misses;
    stats.hierarchy.prefetches_issued = 50;
    stats.hierarchy.prefetch_evicted_unused = 4;
    stats.hierarchy.prefetch_unused_at_end = 3;
    return stats;
}

TEST(CellChecks, ConsistentCellPasses)
{
    EXPECT_TRUE(checkCell("context", consistentStats(), kTrace).empty());
    RunStats none = consistentStats();
    none.hierarchy.prefetches_issued = 0;
    EXPECT_TRUE(checkCell("none", none, kTrace).empty());
}

TEST(CellChecks, OffByOneClassCountFailsTheCell)
{
    RunStats stats = consistentStats();
    ++stats.classes[static_cast<std::size_t>(AccessClass::NonTimely)];
    EXPECT_EQ(checkCell("context", stats, kTrace).size(), 1u);

    CellLedger ledger;
    ledger.check("mcf/context", "context", consistentStats(), kTrace);
    ledger.check("mcf/context", "context", stats, kTrace);
    EXPECT_EQ(ledger.attempted(), 2u);
    EXPECT_EQ(ledger.failed(), 1u);
}

TEST(CellChecks, PrefetchingNoneFailsTheCell)
{
    RunStats stats = consistentStats(); // issues 50 prefetches
    CellLedger ledger;
    ledger.check("mcf/none", "none", stats, kTrace);
    EXPECT_EQ(ledger.failed(), 1u);
    ASSERT_EQ(ledger.messages().size(), 1u);
    EXPECT_NE(ledger.messages()[0].find("none"), std::string::npos);
}

TEST(CellChecks, BrokenMissOrderingFails)
{
    RunStats stats = consistentStats();
    stats.l2_demand_misses = stats.l1_misses + 1;
    stats.hierarchy.l2_demand_misses = stats.l2_demand_misses;
    EXPECT_FALSE(checkCell("context", stats, kTrace).empty());
}

TEST(CellChecks, HierarchyMirrorMismatchFails)
{
    RunStats stats = consistentStats();
    stats.hierarchy.l1_misses = stats.l1_misses - 1;
    EXPECT_FALSE(checkCell("context", stats, kTrace).empty());
}

TEST(CellChecks, CountsThatDisagreeWithTheTraceFail)
{
    RunStats stats = consistentStats();
    EXPECT_FALSE(checkCell("context", stats, {kTrace.instructions + 1,
                                              kTrace.mem_accesses})
                     .empty());
    EXPECT_FALSE(checkCell("context", stats, {kTrace.instructions,
                                              kTrace.mem_accesses - 1})
                     .empty());
}

TEST(CellChecks, ReferenceDigestMismatchFailsTheCell)
{
    const RunStats reference = consistentStats();
    RunStats rerun = reference;
    rerun.cycles += 1; // every other identity still holds
    CellLedger ledger;
    ledger.check("mcf/context#traced", "context", reference, kTrace,
                 &reference);
    ledger.check("mcf/context#traced", "context", rerun, kTrace, &reference);
    EXPECT_EQ(ledger.attempted(), 2u);
    EXPECT_EQ(ledger.failed(), 1u);
}

} // namespace
