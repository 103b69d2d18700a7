/**
 * @file
 * Seeded benchmark inputs and the small statistics helpers the
 * workloads share.
 *
 * Every input is a function of the benchmark seed alone: the library
 * never sees the seed, only the generated `.tir` texts and memory
 * images. The same seed gives byte-identical texts.
 */

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/synthetic.h"

namespace perfbench {

/** Mix @p seed with a salt into an independent 64-bit stream seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** One generated module, printed to `.tir` text. */
struct TextModule
{
    std::string name;
    std::string text;
    size_t mem_words = 0;
};

/**
 * Profiles per proxy. Tail duplication and trace selection follow the
 * profile, so one profile per proxy makes the amount of compile work
 * jump from seed to seed; several average that out.
 */
inline constexpr size_t kProfileVariants = 4;

/**
 * The eight SPECint95 proxies, each profiled kProfileVariants times on
 * inputs drawn from @p seed and printed with its block and edge
 * weights: variant-major, proxy-minor. The proxies' structure is
 * fixed; the seed moves only the profiles.
 */
std::vector<TextModule> makeProxyInputs(uint64_t seed);

/**
 * @p count unprofiled modules shaped like the proxies (their
 * GenParams, in rotation, with structure seeds drawn from @p salt).
 * The server profiles what it is sent.
 */
std::vector<TextModule> makeServeModules(uint64_t salt, size_t count);

/** Memory image for checking compile @p index of a run. */
std::vector<int64_t> gateMemory(size_t mem_words, uint64_t seed,
                                uint64_t index);

/**
 * Nearest-rank percentile of @p sorted (ascending): the smallest
 * sample with at least @p pct percent of the samples at or below it.
 * @p pct is a whole number in [1, 100].
 */
double percentile(const std::vector<double> &sorted, int pct);

/**
 * The median, over consecutive chunks of @p chunk samples in recording
 * order, of each chunk's nearest-rank @p pct percentile. A trailing
 * partial chunk is dropped; fewer than @p chunk samples form one chunk.
 * With chunk >= 1000, each chunk's p99 has ten samples beyond it, and
 * a burst of host noise moves at most the chunks it overlaps.
 */
double chunkedPercentile(const std::vector<double> &samples,
                         size_t chunk, int pct);

/** Median of @p values (copied and sorted). */
double median(std::vector<double> values);

/** The value of `"key":<number>` after @p from in @p json, or -1. */
double jsonNumber(const std::string &json, const std::string &key,
                  size_t from = 0);

/** Position just past `"key":` in @p json, or npos. */
size_t jsonFind(const std::string &json, const std::string &key,
                size_t from = 0);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
