/**
 * @file
 * Learning-curve report renderer behind `csp learn`: takes one (or two)
 * flattened learn.json documents — the periodic learning-state
 * snapshots cspsim writes under --learn-out — and renders the
 * convergence story as text: per-snapshot learning-curve table with
 * sparklines, convergence diagnostics (did epsilon decay, did policy
 * entropy decay, did accuracy rise, and do they agree), CST-health
 * counters, and the final snapshot's top contexts with their per-arm
 * scores. With a second document the report appends a side-by-side
 * comparison of the final learning states.
 *
 * Output is deterministic for a given input (fixed precision, no
 * wall-clock), so reports can be golden-tested and diffed across runs.
 */

#ifndef CSP_DIFF_LEARN_REPORT_H
#define CSP_DIFF_LEARN_REPORT_H

#include <iosfwd>
#include <string>

#include "core/json.h"

namespace csp::diff {

struct LearnReportOptions
{
    /** Learning-curve rows shown (evenly subsampled when the file has
     *  more snapshots than this). */
    std::size_t max_rows = 16;
    /** Top contexts of the final snapshot shown. */
    std::size_t max_contexts = 8;
};

/**
 * Validate that @p doc looks like a flattened csp-learn-v1 document.
 * Returns false with *error set when a required key is missing.
 */
bool isLearnDoc(const FlatDoc &doc, std::string *error);

/**
 * Render the learning report for @p a (labelled @p label_a). When
 * @p b is non-null a comparison section is appended. Returns false
 * (with *error set) when a document is not a learn.json.
 */
bool renderLearnReport(const FlatDoc &a, const std::string &label_a,
                       const FlatDoc *b, const std::string &label_b,
                       std::ostream &out, std::string *error,
                       const LearnReportOptions &options = {});

} // namespace csp::diff

#endif // CSP_DIFF_LEARN_REPORT_H
