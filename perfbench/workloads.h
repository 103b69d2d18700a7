/**
 * @file
 * The benchmark's three workloads (sweep, taildup, serve), each run
 * from seeded `.tir` text to a verified schedule.
 *
 * A run sets the workload up several times (the median is setup_s),
 * measures an untraced window, optionally a traced window that
 * calls the library layer by layer, and finally runs the
 * correctness gate over every distinct (module, config) output.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;  ///< 0 = not a sampled statistic
};

/** Everything one run measured. */
struct RunOutcome
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;  ///< filled by traced runs only
    std::vector<Metric> extra;      ///< diagnostics outside both lists
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** The first few failure descriptions, for the log. */
    std::vector<std::string> problems;
    /** Digest of the generated input texts (same seed, same digest). */
    std::string input_digest;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Run workload @p name with inputs drawn from @p seed. The untraced
 * window lasts @p seconds (half of it when @p trace, the other half
 * being the traced window). Spans of a traced run are appended to
 * @p span_path when it is non-empty.
 */
RunOutcome runWorkload(const std::string &name, uint64_t seed,
                       double seconds, bool trace,
                       const std::string &span_path);

/** Digest of the inputs @p name generates from @p seed. */
std::string inputDigest(const std::string &name, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
