#include "support/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "support/string_utils.h"

namespace treegion::support {

namespace {

/** The characters jsonEscape writes as a two-character escape, and
 * the letter after the backslash for each. */
constexpr std::string_view kEscaped = "\"\\\n\r\t";
constexpr std::string_view kEscapeLetters = "\"\\nrt";

/** The single-letter escapes the reader accepts, and what each one
 * decodes to. */
constexpr std::string_view kEscapeIn = "\"\\/bfnrt";
constexpr std::string_view kEscapeOut = "\"\\/\b\f\n\r\t";

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (const char c : s) {
        const size_t k = kEscaped.find(c);
        if (k != std::string_view::npos) {
            out += '\\';
            out += kEscapeLetters[k];
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strprintf("\\u%04x", c);
        } else {
            out += c;
        }
    }
}

std::string
jsonFloatText(double value)
{
    if (std::isnan(value))
        return "\"NaN\"";
    if (std::isinf(value))
        return value > 0 ? "\"Infinity\"" : "\"-Infinity\"";
    std::string text = strprintf("%.17g", value);
    if (text.find_first_of(".eE") == std::string::npos &&
        text.find_first_not_of("-0123456789") == std::string::npos)
        text += ".0";
    return text;
}

void
appendJsonArgs(std::string &out, const std::vector<JsonArg> &args)
{
    bool first = true;
    for (const JsonArg &a : args) {
        out += first ? "\"" : ",\"";
        appendJsonEscaped(out, a.key);
        out += "\":";
        switch (a.type) {
            case JsonArg::Type::Int:
                appendInt(out, a.i);
                break;
            case JsonArg::Type::Float:
                out += jsonFloatText(a.f);
                break;
            case JsonArg::Type::Str:
                out += '"';
                appendJsonEscaped(out, a.s);
                out += '"';
                break;
        }
        first = false;
    }
}

FlatJsonReader::FlatJsonReader(std::string_view text, const char *what,
                               std::string *error)
    : text_(text), what_(what), error_(error)
{
}

bool
FlatJsonReader::readObject(
    const std::function<bool(const std::string &)> &member)
{
    skipWs();
    if (!expect('{'))
        return false;
    bool first = true;
    for (;;) {
        skipWs();
        if (peek() == '}') {
            ++pos_;
            break;
        }
        if (!first && !expect(','))
            return false;
        first = false;
        skipWs();
        std::string key;
        if (!string(key))
            return false;
        skipWs();
        if (!expect(':'))
            return false;
        skipWs();
        if (seen(key))
            return fail("duplicate field '" + key + "'");
        keys_.push_back(key);
        if (!member(key))
            return false;
    }
    skipWs();
    if (pos_ != text_.size())
        return fail(std::string("trailing characters after the ") +
                    what_ + " object");
    return true;
}

bool
FlatJsonReader::seen(std::string_view key) const
{
    for (const std::string &k : keys_) {
        if (k == key)
            return true;
    }
    return false;
}

bool
FlatJsonReader::string(std::string &out)
{
    if (!expect('"'))
        return false;
    out.clear();
    while (pos_ < text_.size()) {
        const char c = text_[pos_++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (pos_ >= text_.size())
            return fail("unterminated escape");
        const char esc = text_[pos_++];
        const size_t k = kEscapeIn.find(esc);
        if (k != std::string_view::npos) {
            out += kEscapeOut[k];
            continue;
        }
        if (esc != 'u')
            return fail(strprintf("bad escape '\\%c'", esc));
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        // jsonEscape only emits \u00xx control codes; encode anything
        // else as UTF-8 for completeness.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }
    return fail("unterminated string");
}

bool
FlatJsonReader::number(JsonArg &out)
{
    const size_t start = pos_;
    if (peek() == '-')
        ++pos_;
    bool is_float = false;
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            ++pos_;
        } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                   c == '-') {
            is_float = true;
            ++pos_;
        } else {
            break;
        }
    }
    if (pos_ == start)
        return fail("expected a number");
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char *end = nullptr;
    if (is_float) {
        out.type = JsonArg::Type::Float;
        out.f = std::strtod(token.c_str(), &end);
    } else {
        out.type = JsonArg::Type::Int;
        out.i = std::strtoll(token.c_str(), &end, 10);
    }
    // strtod also reports ERANGE on underflow, where it still returns
    // the nearest double (subnormal or zero); only an overflow to
    // +-HUGE_VAL is out of range.
    const bool out_of_range =
        errno == ERANGE && (!is_float || std::isinf(out.f));
    if (out_of_range || end == nullptr || *end != '\0')
        return fail("bad number '" + token + "'");
    return true;
}

bool
FlatJsonReader::args(std::vector<JsonArg> &out)
{
    if (!expect('{'))
        return false;
    out.clear();
    bool first = true;
    for (;;) {
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        if (!first && !expect(','))
            return false;
        first = false;
        skipWs();
        JsonArg a;
        if (!string(a.key))
            return false;
        skipWs();
        if (!expect(':'))
            return false;
        skipWs();
        if (peek() == '"') {
            a.type = JsonArg::Type::Str;
            if (!string(a.s))
                return false;
        } else if (peek() == '{' || peek() == '[') {
            return fail("argument '" + a.key + "' must be a scalar");
        } else if (!number(a)) {
            return false;
        }
        out.push_back(std::move(a));
    }
}

bool
FlatJsonReader::fail(const std::string &why)
{
    if (error_)
        *error_ = why;
    return false;
}

char
FlatJsonReader::peek() const
{
    return pos_ < text_.size() ? text_[pos_] : '\0';
}

void
FlatJsonReader::skipWs()
{
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
}

bool
FlatJsonReader::expect(char c)
{
    if (peek() != c)
        return fail(strprintf("expected '%c' at offset %zu", c, pos_));
    ++pos_;
    return true;
}

} // namespace treegion::support
