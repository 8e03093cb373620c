/**
 * @file
 * Output checks for the benchmark's simulated cells. Every check is an
 * identity the simulator must satisfy at any seed: a cell's counters
 * agree with each other, with the trace they replayed, and with the
 * same cell run another way (traced, observed, or served warm from the
 * result cache). None compares against a number captured at one seed.
 */

#ifndef PERFBENCH_CELL_CHECKS_H
#define PERFBENCH_CELL_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

/** The counts a trace reports about itself (file header or buffer). */
struct TraceCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t mem_accesses = 0;
};

/**
 * Check one cell's RunStats. Returns one message per violated check,
 * empty when the cell is consistent:
 *  - the five Figure-9 classes sum to demand_accesses;
 *  - l2_demand_misses <= l1_misses <= demand_accesses;
 *  - the hierarchy.* mirrors equal the top-level counters;
 *  - instructions and demand_accesses equal the trace's own counts
 *    (so they are identical across prefetchers of one workload);
 *  - the "none" prefetcher issues no prefetch;
 *  - when the cell repeats a reference run of the same cell (a traced,
 *    observed, repeated or cache-served run), @p reference is that
 *    run's stats and both have the same runStatsDigest.
 */
std::vector<std::string>
checkCell(const std::string &prefetcher, const csp::sim::RunStats &stats,
          const TraceCounts &trace,
          const csp::sim::RunStats *reference = nullptr);

/**
 * Tally of checked cells: each recorded cell is one attempted
 * operation, and a cell with any failure message is one failed
 * operation. Failure messages are kept for the run's log.
 */
class CellLedger
{
  public:
    /** Record one cell labelled @p label with its check failures. */
    void record(const std::string &label,
                const std::vector<std::string> &failures);

    /** checkCell() and record() in one step. */
    void check(const std::string &label, const std::string &prefetcher,
               const csp::sim::RunStats &stats, const TraceCounts &trace,
               const csp::sim::RunStats *reference = nullptr);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

} // namespace perfbench

#endif // PERFBENCH_CELL_CHECKS_H
