/**
 * @file
 * Content-addressed compile cache for the treegion compile service.
 *
 * A cache key is the 128-bit content hash of (canonical function
 * text, configuration fingerprint). "Canonical" means the function
 * is printed through ir::appendFunction after parsing, so two
 * textually different but structurally identical submissions (extra
 * whitespace, comments, reordered incidentals the printer
 * normalizes) address the same entry. The configuration fingerprint
 * is the full encodePipelineOptions() line plus every request field
 * that shapes the response body (profile settings, schedule echo) —
 * anything that can change a single output byte must be in the key.
 *
 * Values are the exact serialized response bodies, so a hit is a
 * byte-for-byte replay of the miss that filled it. The determinism
 * invariant (hit == fresh compile, bit-identical) is enforced by the
 * server's verify mode, on by default in debug builds.
 *
 * Eviction is LRU under a byte budget: lookup refreshes recency,
 * insert evicts from the cold end until the new entry fits. Entries
 * larger than the whole budget are not cached at all.
 */

#ifndef TREEGION_SERVICE_CACHE_H
#define TREEGION_SERVICE_CACHE_H

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "ir/function.h"

namespace treegion::service {

/** 128-bit content address of one (function, configuration) pair. */
struct CacheKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool
    operator==(const CacheKey &other) const
    {
        return lo == other.lo && hi == other.hi;
    }

    bool
    operator<(const CacheKey &other) const
    {
        return hi != other.hi ? hi < other.hi : lo < other.lo;
    }

    /** Hex rendering, e.g. for logs and the stats endpoint. */
    std::string str() const;
};

/**
 * Parse the 32-hex-digit rendering CacheKey::str() produces (the
 * wire form of the fill verb's fill-key header).
 * @return false when @p hex is not exactly 32 hex digits.
 */
bool parseCacheKeyHex(const std::string &hex, CacheKey *out);

/**
 * @return @p fn printed in canonical textual form (the printer's
 * output, which print->parse->print fixes). This is the function
 * half of every cache key.
 */
std::string canonicalFunctionText(const ir::Function &fn);

/**
 * @return the content address of compiling the function whose
 * canonical text is @p canonical_fn under @p config_fingerprint.
 */
CacheKey makeCacheKey(const std::string &canonical_fn,
                      const std::string &config_fingerprint);

/** LRU cache of serialized compile results under a byte budget. */
class CompileCache
{
  public:
    /** Point-in-time counters (monotonic except bytes/entries). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        size_t bytes = 0;    ///< payload bytes currently held
        size_t entries = 0;  ///< entries currently held
    };

    /** @param max_bytes payload byte budget; 0 disables caching. */
    explicit CompileCache(size_t max_bytes) : max_bytes_(max_bytes) {}

    /**
     * @return the payload stored under @p key (refreshing its
     * recency), or nullopt on a miss. Counts a hit or a miss.
     */
    std::optional<std::string> lookup(const CacheKey &key);

    /**
     * Store @p payload under @p key, evicting least-recently-used
     * entries until it fits. Re-inserting an existing key refreshes
     * the payload and recency. Payloads over the whole budget are
     * dropped (counted as neither insertion nor eviction).
     */
    void insert(const CacheKey &key, std::string payload);

    /** @return a consistent snapshot of the counters. */
    Stats stats() const;

    /** @return the configured byte budget. */
    size_t maxBytes() const { return max_bytes_; }

    /** Drop every entry (counters keep their totals). */
    void clear();

  private:
    struct Entry
    {
        CacheKey key;
        std::string payload;
    };

    void evictUntilFits(size_t incoming_bytes);

    mutable std::mutex mutex_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::map<CacheKey, std::list<Entry>::iterator> index_;
    size_t bytes_ = 0;
    const size_t max_bytes_;
    Stats counters_;
};

} // namespace treegion::service

#endif // TREEGION_SERVICE_CACHE_H
