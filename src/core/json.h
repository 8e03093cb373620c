/**
 * @file
 * The repo's one JSON module: a flattening reader and the string
 * escaper every emitter shares.
 *
 * Readers (the result cache, the sweep artefact reader, the report
 * tools, `csp diff`) all consume documents the repo wrote itself, so
 * a flat view is enough: objects join keys with '.', arrays use the
 * element index as the key segment, and every scalar keeps its source
 * text next to its numeric value.
 */

#ifndef CSP_CORE_JSON_H
#define CSP_CORE_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csp {

/** One flattened scalar: numeric when the source text parses fully as
 *  a number, textual otherwise. The source text is kept for reports
 *  and for exact string comparison of non-numeric values. */
struct FlatValue
{
    bool is_number = false;
    double number = 0.0;
    std::string text;
};

/** A parsed artefact: dotted-name -> value pairs in document order. */
struct FlatDoc
{
    std::vector<std::pair<std::string, FlatValue>> entries;

    /** First entry named @p name, or nullptr. */
    const FlatValue *find(const std::string &name) const;

    void add(std::string name, FlatValue value);

    /** Source text of @p name, or @p fallback when absent. */
    std::string text(const std::string &name,
                     const std::string &fallback = "") const;

    /** Numeric value of @p name, or @p fallback when absent or not a
     *  number. */
    double number(const std::string &name, double fallback = 0.0) const;

    /** @p name as an exact uint64 parsed from its source text (the
     *  double lane loses precision above 2^53): empty when absent, not
     *  a number, or not a plain decimal integer that fits. */
    std::optional<std::uint64_t> u64(const std::string &name) const;
};

/**
 * Flatten a JSON document into @p out. Returns false (with *error
 * set) on malformed input. Handles everything this repo emits plus
 * the escape sequences of ordinary JSON; \u escapes above 0x7f decode
 * to '?'.
 */
bool parseJsonFlat(const std::string &text, FlatDoc &out,
                   std::string *error);

/** @p text escaped for the inside of a JSON string literal: quote,
 *  backslash and every control byte; other bytes pass through. */
std::string jsonEscape(std::string_view text);

} // namespace csp

#endif // CSP_CORE_JSON_H
