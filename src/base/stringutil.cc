#include "base/stringutil.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace eq {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

bool
parseIntInRange(const char *text, int64_t lo, int64_t hi, int64_t *out)
{
    // strtoll alone would accept leading blanks and a '+'.
    if (!text || !std::isdigit(static_cast<unsigned char>(
                     text[0] == '-' ? text[1] : text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

} // namespace eq
