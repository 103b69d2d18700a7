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
