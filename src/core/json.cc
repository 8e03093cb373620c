#include "core/json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace csp {

namespace {

/** A minimal recursive-descent parser producing dotted names. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, FlatDoc &out)
        : p_(text.data()), end_(text.data() + text.size()), out_(out)
    {}

    bool
    parse(std::string *error)
    {
        skipWs();
        if (!parseValue("")) {
            if (error != nullptr)
                *error = error_;
            return false;
        }
        skipWs();
        if (p_ != end_) {
            if (error != nullptr)
                *error = "trailing characters after JSON value";
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (p_ != end_ &&
               std::isspace(static_cast<unsigned char>(*p_)))
            ++p_;
    }

    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what;
        return false;
    }

    static std::string
    join(const std::string &prefix, const std::string &key)
    {
        return prefix.empty() ? key : prefix + "." + key;
    }

    bool
    parseString(std::string &out)
    {
        if (p_ == end_ || *p_ != '"')
            return fail("expected string");
        ++p_;
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            char ch = *p_++;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (p_ == end_)
                return fail("dangling escape");
            const char esc = *p_++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (end_ - p_ < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char hex = *p_++;
                    code <<= 4;
                    if (hex >= '0' && hex <= '9')
                        code |= static_cast<unsigned>(hex - '0');
                    else if (hex >= 'a' && hex <= 'f')
                        code |= static_cast<unsigned>(hex - 'a' + 10);
                    else if (hex >= 'A' && hex <= 'F')
                        code |= static_cast<unsigned>(hex - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // Stats names are ASCII; anything wider degrades to
                // '?' rather than growing a UTF-8 encoder here.
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: return fail("unknown escape");
            }
        }
        if (p_ == end_)
            return fail("unterminated string");
        ++p_; // closing quote
        return true;
    }

    bool
    parseValue(const std::string &prefix)
    {
        skipWs();
        if (p_ == end_)
            return fail("unexpected end of input");
        const char ch = *p_;
        if (ch == '{')
            return parseObject(prefix);
        if (ch == '[')
            return parseArray(prefix);
        if (ch == '"') {
            FlatValue value;
            if (!parseString(value.text))
                return false;
            out_.add(prefix, std::move(value));
            return true;
        }
        if (ch == 't' || ch == 'f' || ch == 'n')
            return parseWord(prefix);
        return parseNumber(prefix);
    }

    bool
    parseObject(const std::string &prefix)
    {
        ++p_; // '{'
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return fail("expected ':' in object");
            ++p_;
            if (!parseValue(join(prefix, key)))
                return false;
            skipWs();
            if (p_ == end_)
                return fail("unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(const std::string &prefix)
    {
        ++p_; // '['
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        std::size_t index = 0;
        while (true) {
            if (!parseValue(join(prefix, std::to_string(index++))))
                return false;
            skipWs();
            if (p_ == end_)
                return fail("unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseWord(const std::string &prefix)
    {
        for (const char *word : {"true", "false", "null"}) {
            const std::size_t n = std::strlen(word);
            if (static_cast<std::size_t>(end_ - p_) >= n &&
                std::equal(word, word + n, p_)) {
                FlatValue value;
                value.text = word;
                p_ += n;
                out_.add(prefix, std::move(value));
                return true;
            }
        }
        return fail("unknown literal");
    }

    bool
    parseNumber(const std::string &prefix)
    {
        char *after = nullptr;
        const double number = std::strtod(p_, &after);
        if (after == p_)
            return fail("expected value");
        FlatValue value;
        value.is_number = true;
        value.number = number;
        value.text.assign(p_, static_cast<std::size_t>(after - p_));
        p_ = after;
        out_.add(prefix, std::move(value));
        return true;
    }

    const char *p_;
    const char *end_;
    FlatDoc &out_;
    std::string error_;
};


} // namespace

const FlatValue *
FlatDoc::find(const std::string &name) const
{
    for (const auto &[entry_name, value] : entries) {
        if (entry_name == name)
            return &value;
    }
    return nullptr;
}

void
FlatDoc::add(std::string name, FlatValue value)
{
    entries.emplace_back(std::move(name), std::move(value));
}

std::string
FlatDoc::text(const std::string &name, const std::string &fallback) const
{
    const FlatValue *value = find(name);
    return value != nullptr ? value->text : fallback;
}

double
FlatDoc::number(const std::string &name, double fallback) const
{
    const FlatValue *value = find(name);
    return value != nullptr && value->is_number ? value->number
                                                : fallback;
}

std::optional<std::uint64_t>
FlatDoc::u64(const std::string &name) const
{
    const FlatValue *value = find(name);
    if (value == nullptr || !value->is_number || value->text.empty())
        return std::nullopt;
    std::uint64_t out = 0;
    for (const char ch : value->text) {
        if (ch < '0' || ch > '9')
            return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(ch - '0');
        if (out > (UINT64_MAX - digit) / 10)
            return std::nullopt;
        out = out * 10 + digit;
    }
    return out;
}

bool
parseJsonFlat(const std::string &text, FlatDoc &out,
              std::string *error)
{
    return JsonParser(text, out).parse(error);
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

} // namespace csp
