/**
 * @file
 * Small non-cryptographic content hashing (FNV-1a, 64-bit).
 *
 * Used for content addressing in the compile cache: two 64-bit
 * FNV-1a streams with different offset bases give a 128-bit key,
 * which makes accidental collisions on cache-sized working sets
 * astronomically unlikely. Not collision-resistant against an
 * adversary — callers that need an integrity guarantee must compare
 * payloads (the cache's debug verify mode does exactly that).
 */

#ifndef TREEGION_SUPPORT_HASH_H
#define TREEGION_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace treegion::support {

/** FNV-1a offset basis (the standard 64-bit one). */
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/** An alternate basis for the second, independent hash stream. */
inline constexpr uint64_t kFnvOffsetBasisAlt = 0x84222325cbf29ce4ull;

/** @return the 64-bit FNV-1a hash of @p data, folded into @p seed. */
inline constexpr uint64_t
fnv1a64(std::string_view data, uint64_t seed = kFnvOffsetBasis)
{
    uint64_t hash = seed;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Fold @p data into two FNV-1a states in one pass: @p a and @p b end
 * as fnv1a64(data, a) and fnv1a64(data, b), but the two independent
 * multiply chains overlap instead of running back to back.
 */
inline constexpr void
fnv1a64Pair(std::string_view data, uint64_t &a, uint64_t &b)
{
    for (const char c : data) {
        const auto byte = static_cast<unsigned char>(c);
        a = (a ^ byte) * 0x100000001b3ull;
        b = (b ^ byte) * 0x100000001b3ull;
    }
}

} // namespace treegion::support

#endif // TREEGION_SUPPORT_HASH_H
