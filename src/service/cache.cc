#include "service/cache.h"

#include <utility>

#include "ir/printer.h"
#include "support/hash.h"
#include "support/string_utils.h"

namespace treegion::service {

std::string
CacheKey::str() const
{
    return support::strprintf("%016llx%016llx",
                              static_cast<unsigned long long>(hi),
                              static_cast<unsigned long long>(lo));
}

bool
parseCacheKeyHex(const std::string &hex, CacheKey *out)
{
    if (hex.size() != 32)
        return false;
    uint64_t words[2] = {0, 0};
    for (size_t i = 0; i < 32; ++i) {
        const char c = hex[i];
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<uint64_t>(c - 'A') + 10;
        else
            return false;
        words[i / 16] = (words[i / 16] << 4) | digit;
    }
    out->hi = words[0];
    out->lo = words[1];
    return true;
}

std::string
canonicalFunctionText(const ir::Function &fn)
{
    std::string text;
    ir::appendFunction(text, fn);
    return text;
}

CacheKey
makeCacheKey(const std::string &canonical_fn,
             const std::string &config_fingerprint)
{
    // Two independent FNV-1a streams over "<fn> \x1f <config>", fed
    // in one pass; the separator keeps (a, b) and
    // (a + prefix-of-b, rest) distinct.
    CacheKey key;
    key.lo = support::kFnvOffsetBasis;
    key.hi = support::kFnvOffsetBasisAlt;
    support::fnv1a64Pair(canonical_fn, key.lo, key.hi);
    support::fnv1a64Pair("\x1f", key.lo, key.hi);
    support::fnv1a64Pair(config_fingerprint, key.lo, key.hi);
    return key;
}

std::optional<std::string>
CompileCache::lookup(const CacheKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++counters_.misses;
        return std::nullopt;
    }
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->payload;
}

void
CompileCache::insert(const CacheKey &key, std::string payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (payload.size() > max_bytes_)
        return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        bytes_ -= it->second->payload.size();
        bytes_ += payload.size();
        it->second->payload = std::move(payload);
        lru_.splice(lru_.begin(), lru_, it->second);
        evictUntilFits(0);
        return;
    }
    evictUntilFits(payload.size());
    lru_.push_front(Entry{key, std::move(payload)});
    bytes_ += lru_.front().payload.size();
    index_.emplace(key, lru_.begin());
    ++counters_.insertions;
}

void
CompileCache::evictUntilFits(size_t incoming_bytes)
{
    while (!lru_.empty() && bytes_ + incoming_bytes > max_bytes_) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.payload.size();
        index_.erase(victim.key);
        lru_.pop_back();
        ++counters_.evictions;
    }
}

CompileCache::Stats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = counters_;
    out.bytes = bytes_;
    out.entries = lru_.size();
    return out;
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    bytes_ = 0;
}

} // namespace treegion::service
