/**
 * @file
 * Small string helpers shared across the project.
 */

#ifndef EQ_BASE_STRINGUTIL_HH
#define EQ_BASE_STRINGUTIL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace eq {

/** Split @p s on @p sep, dropping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** True iff @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

/** Upper bound for every worker/thread count a flag or environment
 *  variable may request: far below any OS thread limit, far above any
 *  useful degree of parallelism on one host. */
constexpr int64_t kMaxWorkerThreads = 256;

/** Parse @p text — an optional '-' then decimal digits, nothing else —
 *  as an integer within [@p lo, @p hi]. @return false, leaving @p out
 *  untouched, on any other text, on overflow, or out of range. */
bool parseIntInRange(const char *text, int64_t lo, int64_t hi,
                     int64_t *out);

} // namespace eq

#endif // EQ_BASE_STRINGUTIL_HH
