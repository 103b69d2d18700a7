/**
 * @file
 * String helpers shared by the IR printer/parser and bench output.
 */

#ifndef TREEGION_SUPPORT_STRING_UTILS_H
#define TREEGION_SUPPORT_STRING_UTILS_H

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace treegion::support {

/** Split @p text on @p sep, dropping empty pieces. */
std::vector<std::string> splitString(std::string_view text, char sep);

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view text);

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/**
 * Parse all of @p text as one number of type @p T (std::from_chars:
 * decimal, no '+', no surrounding blanks, in range). @return false,
 * leaving @p out unspecified, unless the whole non-empty text parses.
 */
template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    if (text.empty())
        return false;
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

/** Report that command-line flag @p flag got @p text where it needs
 * a number, and exit with status 2 (a usage error). */
[[noreturn]] void exitBadFlagNumber(std::string_view flag,
                                    const char *text);

/** parseNumber for the value @p text of command-line flag @p flag;
 * anything but one whole number exits via exitBadFlagNumber. */
template <typename T>
void
parseFlagNumber(std::string_view flag, const char *text, T &out)
{
    if (!parseNumber(text, out))
        exitBadFlagNumber(flag, text);
}

/** Append the decimal form of the integer @p value to @p out. */
template <typename Int>
void
appendInt(std::string &out, Int value)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

/**
 * Append @p value exactly as printf("%.6g") formats it in the C
 * locale (std::to_chars with general format and precision 6 is
 * specified as that conversion).
 */
void appendG6(std::string &out, double value);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace treegion::support

#endif // TREEGION_SUPPORT_STRING_UTILS_H
