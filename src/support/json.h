/**
 * @file
 * The one flat-JSON codec behind the telemetry wire formats (remark
 * lines, treegion-span/v1 lines, the Chrome trace export) and the
 * JSON the tools print.
 *
 * Writing: jsonEscape for string literals, jsonFloatText for floats
 * (finite ones round-trip bit-exactly and keep their type; NaN and
 * infinities come back as Str args), appendJsonArgs for an ordered
 * list of named scalars.
 *
 * Reading: FlatJsonReader parses one object whose members are
 * strings and numbers plus, at most, one flat object of scalars (the
 * "args" member). It is strict — a repeated key, a nested value, a
 * malformed token or anything after the closing brace is an error —
 * and the schema stays with the caller: the reader hands each key to
 * a callback that consumes the value with string(), number() or
 * args(). Not a general JSON parser; exactly the subset the writers
 * emit.
 */

#ifndef TREEGION_SUPPORT_JSON_H
#define TREEGION_SUPPORT_JSON_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace treegion::support {

/** One named scalar argument of a remark or span (ordered; order is
 * schema). */
struct JsonArg
{
    enum class Type { Int, Float, Str };

    std::string key;
    Type type = Type::Int;
    int64_t i = 0;
    double f = 0.0;
    std::string s;

    bool operator==(const JsonArg &other) const = default;

    static JsonArg
    ofInt(std::string key, int64_t value)
    {
        return {std::move(key), Type::Int, value, 0.0, {}};
    }

    static JsonArg
    ofFloat(std::string key, double value)
    {
        return {std::move(key), Type::Float, 0, value, {}};
    }

    static JsonArg
    ofStr(std::string key, std::string value)
    {
        return {std::move(key), Type::Str, 0, 0.0, std::move(value)};
    }
};

/**
 * Escape @p s for inclusion inside a JSON string literal (quotes,
 * backslashes, control characters).
 */
std::string jsonEscape(std::string_view s);

/** Append jsonEscape(@p s) to @p out. */
void appendJsonEscaped(std::string &out, std::string_view s);

/**
 * Render @p value with %.17g so it round-trips bit-exactly through
 * strtod (subnormals included); integral values get a trailing ".0"
 * so a reparse yields a Float again, not an Int. JSON has no NaN or
 * infinity: those are written as the strings "NaN", "Infinity" and
 * "-Infinity" (the protobuf JSON mapping), valid JSON that reads
 * back as a Str argument holding that text.
 */
std::string jsonFloatText(double value);

/** Append @p args as object members `"key":value,...` (no braces),
 * in order. */
void appendJsonArgs(std::string &out, const std::vector<JsonArg> &args);

/**
 * Strict reader for one flat JSON object (see the file comment).
 * Every error sets the caller's error string once and makes the
 * whole read fail.
 */
class FlatJsonReader
{
  public:
    /** @p what names the record in the trailing-bytes error, e.g.
     * "span" -> "trailing characters after the span object". @p text
     * must outlive the reader. */
    FlatJsonReader(std::string_view text, const char *what,
                   std::string *error);

    /**
     * Read the whole text as one object, calling @p member with each
     * key once its ':' is consumed; @p member must consume the value
     * and return false on a schema violation. A repeated key is an
     * error ("duplicate field 'k'"), as is anything but whitespace
     * after the closing brace.
     */
    bool readObject(
        const std::function<bool(const std::string &)> &member);

    /** @return true when readObject met @p key. */
    bool seen(std::string_view key) const;

    /** Consume a string value into @p out. */
    bool string(std::string &out);

    /** Consume a number into @p out: Int unless it has a fraction or
     * an exponent. */
    bool number(JsonArg &out);

    /** Consume a flat object of scalar values into @p out. */
    bool args(std::vector<JsonArg> &out);

    /** Record @p why as the error. @return false. */
    bool fail(const std::string &why);

  private:
    char peek() const;
    void skipWs();
    bool expect(char c);

    std::string_view text_;
    const char *what_;
    std::string *error_;
    size_t pos_ = 0;
    std::vector<std::string> keys_;
};

} // namespace treegion::support

#endif // TREEGION_SUPPORT_JSON_H
