#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

/** JSON string literal for @p text (names and labels are plain ASCII). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

} // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
}

std::uint32_t
SpanRecorder::newCell(const std::string &label)
{
    cells_.push_back(label);
    return static_cast<std::uint32_t>(cells_.size());
}

std::uint32_t
SpanRecorder::open(const std::string &name, std::uint32_t cell)
{
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.cell = cell;
    span.name = name;
    span.start_ns = nowNs();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::close(std::uint32_t id)
{
    // Scoped spans close innermost first, so @p id is on top; any span
    // still open above it is closed with it.
    const std::uint64_t now = nowNs();
    while (!stack_.empty()) {
        const std::uint32_t top = stack_.back();
        stack_.pop_back();
        spans_[top - 1].end_ns = now;
        if (top == id)
            break;
    }
}

std::uint64_t
SpanRecorder::selfNs(std::uint32_t id) const
{
    const Span &span = spans_[id - 1];
    // Children of one span never overlap on a single thread, but merge
    // their intervals anyway so the self time can never go negative.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const Span &child : spans_) {
        if (child.parent == id) {
            covered.emplace_back(std::max(child.start_ns, span.start_ns),
                                 std::min(child.end_ns, span.end_ns));
        }
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t covered_ns = 0;
    std::uint64_t reach = span.start_ns;
    for (const auto &[start, end] : covered) {
        const std::uint64_t from = std::max(start, reach);
        if (end > from) {
            covered_ns += end - from;
            reach = end;
        }
    }
    return (span.end_ns - span.start_ns) - covered_ns;
}

std::map<std::string, SpanTotals>
SpanRecorder::totals() const
{
    std::map<std::string, SpanTotals> out;
    for (const Span &span : spans_) {
        SpanTotals &totals = out[span.name];
        ++totals.count;
        totals.total_ns += span.end_ns - span.start_ns;
        totals.self_ns += selfNs(span.id);
    }
    return out;
}

void
SpanRecorder::writeJson(std::ostream &out) const
{
    out << "{\"cells\":[";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        out << (i == 0 ? "" : ",") << "{\"id\":" << i + 1
            << ",\"label\":" << quoted(cells_[i]) << '}';
    }
    out << "],\n\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"cell\":" << span.cell
            << ",\"name\":" << quoted(span.name)
            << ",\"start_ns\":" << span.start_ns
            << ",\"end_ns\":" << span.end_ns
            << ",\"self_ns\":" << selfNs(span.id) << '}';
    }
    out << "],\n\"totals\":{";
    bool first = true;
    for (const auto &[name, totals] : this->totals()) {
        out << (first ? "" : ",\n") << quoted(name)
            << ":{\"count\":" << totals.count
            << ",\"total_ns\":" << totals.total_ns
            << ",\"self_ns\":" << totals.self_ns << '}';
        first = false;
    }
    out << "}}\n";
}

} // namespace perfbench
