/**
 * @file
 * 64-bit FNV-1a, the one structural hash of the project.
 *
 * Some of its values are persisted (the sweep journal's grid hash, the
 * result cache's bucket hashes), so the byte order below is part of
 * the on-disk format: integers are folded in as their 8 little-endian
 * bytes, strings as their raw bytes.
 */

#ifndef EQ_BASE_FNV_HH
#define EQ_BASE_FNV_HH

#include <cstdint>
#include <string>

namespace eq {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold the 8 bytes of @p v (least significant first) into @p h. */
inline uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** Fold the bytes of @p s into @p h. */
inline uint64_t
fnv1a(uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

} // namespace eq

#endif // EQ_BASE_FNV_HH
