/**
 * @file
 * In-memory spans for the benchmark's traced run. The benchmark opens
 * a span around each call it makes into a layer (trace generation,
 * trace save/open/decode, a replay, a sweep, an export); spans nest by
 * call order, and every span belongs to one cell (a workload,
 * prefetcher pair, or one benchmark phase). Nothing is written until
 * the run ends.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One closed or open span. Times are ns since the recorder started. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 for a root span
    std::uint32_t cell = 0;   ///< id of the cell the span belongs to
    std::string name;         ///< "<layer>.<call>", e.g. "sim.run"
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/** Per-name totals over every closed span of that name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0; ///< total minus time covered by children
};

/**
 * Single-threaded span recorder. Spans are opened and closed in
 * strict nesting order from one thread; a span opened while another is
 * open becomes its child.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Start a new cell label and return its id (ids start at 1). */
    std::uint32_t newCell(const std::string &label);

    /** Open a span in @p cell; returns its id. */
    std::uint32_t open(const std::string &name, std::uint32_t cell);

    /** Close open span @p id (and any span still open inside it). */
    void close(std::uint32_t id);

    /** Duration of span @p id minus the part its children cover. */
    std::uint64_t selfNs(std::uint32_t id) const;

    /** Totals per span name, over closed spans. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span and the per-name totals as one JSON document. */
    void writeJson(std::ostream &out) const;

  private:
    std::uint64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;          ///< index = id - 1
    std::vector<std::string> cells_;   ///< index = cell id - 1
    std::vector<std::uint32_t> stack_; ///< open span ids, innermost last
};

/**
 * RAII span: opens on construction, closes on destruction. A null
 * recorder makes it a no-op, so untraced runs share the same code.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               std::uint32_t cell)
        : recorder_(recorder),
          id_(recorder != nullptr ? recorder->open(name, cell) : 0)
    {}

    ~ScopedSpan()
    {
        if (recorder_ != nullptr)
            recorder_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    std::uint32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
