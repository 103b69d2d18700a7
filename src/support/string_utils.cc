#include "support/string_utils.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace treegion::support {

std::vector<std::string>
splitString(std::string_view text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        size_t end = text.find(sep, start);
        if (end == std::string_view::npos)
            end = text.size();
        if (end > start)
            out.emplace_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::string_view
trim(std::string_view text)
{
    const auto blank = [](char c) {
        return c == ' ' || c == '\t' || c == '\r' || c == '\n';
    };
    while (!text.empty() && blank(text.front()))
        text.remove_prefix(1);
    while (!text.empty() && blank(text.back()))
        text.remove_suffix(1);
    return text;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

void
appendG6(std::string &out, double value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::general, 6);
    out.append(buf, res.ptr);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

void
exitBadFlagNumber(std::string_view flag, const char *text)
{
    std::fprintf(stderr, "%.*s expects a number, got '%s'\n",
                 static_cast<int>(flag.size()), flag.data(), text);
    std::exit(2);
}

} // namespace treegion::support
