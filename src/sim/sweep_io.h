/**
 * @file
 * Sweep artefact serialization: one CSV/JSON shape shared by every
 * producer so byte-identity is structural, not accidental.
 *
 * `cspsim --workloads` (whole sweep or one shard) and `csp merge`
 * (shards reassembled) both emit through writeSweepCsv /
 * writeSweepJson. Because cell stats are bit-identical regardless of
 * how they were obtained (simulated, memoized, or merged from another
 * process — the determinism contract), a merged CSV is byte-identical
 * to an unsharded run's and a warm sweep's output is byte-identical to
 * a cold one's; only the manifest's timing block and the cache/shard
 * accounting may differ, which csp diff classifies as provenance.
 *
 * The JSON schema is "csp-sweep-v2": manifest, shard block, cache
 * block (counts plus warm-path read/parse attribution), then the
 * present cells in row-major (workload-major) order. v2 extends v1's
 * cache block with read_ns/parse_ns/entry_bytes/verify_failures;
 * artefacts are transient hand-off files (CI temp dirs, shard
 * scratch), so the reader requires v2 rather than special-casing old
 * files.
 */

#ifndef CSP_SIM_SWEEP_IO_H
#define CSP_SIM_SWEEP_IO_H

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace csp::sim {

/**
 * Write the sweep's cell matrix as CSV: a header row of
 * "workload,prefetcher,<every RunStats field>", then one row per
 * present cell in row-major order. All values are integers, so the
 * bytes are a pure function of the cell data.
 */
void writeSweepCsv(std::ostream &out, const SweepResult &result);

/** Write the full "csp-sweep-v2" JSON artefact (see file comment). */
void writeSweepJson(std::ostream &out, const SweepResult &result);

/**
 * Parse a writeSweepJson artefact. The cell matrix is rebuilt at full
 * grid size from the manifest's workload/prefetcher lists, with
 * present=false holes for cells the artefact does not carry (other
 * shards' cells). False with *error set on malformed input.
 */
bool readSweepJson(const std::string &path, SweepResult &out,
                   std::string *error);

/**
 * Assemble shard artefacts into one complete sweep. Refuses (false,
 * *error) when the shards' manifests disagree on what was swept
 * (config digest, trace digest, seed, scale, placement, workload or
 * prefetcher lists), when a cell is owned twice, or when coverage is
 * incomplete. On success the result carries every cell, summed
 * cache/shard accounting, summed wall-clock, and shard 0's manifest
 * otherwise — so writeSweepCsv(out) is byte-identical to an unsharded
 * run of the same sweep.
 */
bool mergeSweeps(const std::vector<SweepResult> &shards,
                 SweepResult &out, std::string *error);

} // namespace csp::sim

#endif // CSP_SIM_SWEEP_IO_H
