#include "support/rng.h"

#include "support/logging.h"

namespace treegion::support {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** hi - lo + 1 as an unsigned span; 0 means the full 64-bit range. */
uint64_t
rangeSpan(int64_t lo, int64_t hi)
{
    TG_ASSERT(lo <= hi);
    return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
}

/** lo + offset in two's complement (offset < the range's span). */
int64_t
rangeValue(int64_t lo, uint64_t offset)
{
    return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    TG_ASSERT(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        const uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    const uint64_t span = rangeSpan(lo, hi);
    return rangeValue(lo, span == 0 ? next() : nextBelow(span));
}

void
Rng::fillRange(std::span<int64_t> out, int64_t lo, int64_t hi)
{
    // Draw from a local copy: stores through @p out may alias s_
    // (int64_t and uint64_t), which would keep the state in memory.
    Rng rng = *this;
    const uint64_t span = rangeSpan(lo, hi);
    if (span == 0) {
        for (int64_t &v : out)
            v = rangeValue(lo, rng.next());
        *this = rng;
        return;
    }
    // nextBelow(span) per value. r % span is computed by direct
    // remainder (Lemire, Kaser and Kurz, "Faster Remainder by Direct
    // Computation"): with m = ceil(2^128 / span), r % span is the high
    // 64 bits of ((m * r) mod 2^128) * span, exact for every 64-bit r.
    // span == 1 wraps m to 0, which yields the right remainder, 0.
    using U128 = unsigned __int128;
    const uint64_t threshold = -span % span;
    const U128 m = ~U128{0} / span + 1;
    for (int64_t &v : out) {
        uint64_t r = rng.next();
        while (r < threshold)
            r = rng.next();
        const U128 frac = m * r;
        const U128 low = (frac & UINT64_MAX) * span >> 64;
        const U128 high = (frac >> 64) * span;
        v = rangeValue(lo, static_cast<uint64_t>((low + high) >> 64));
    }
    *this = rng;
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    TG_ASSERT(!weights.empty());
    double total = 0.0;
    for (double w : weights) {
        TG_ASSERT(w >= 0.0);
        total += w;
    }
    TG_ASSERT(total > 0.0);
    double pick = nextDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace treegion::support
