/**
 * @file
 * tgbench: the benchmark binary behind perfbench/run.py.
 *
 *   tgbench --workload NAME --seed N --seconds S --trace 0|1
 *   tgbench --selftest
 *
 * Prints one provenance/detail JSON line, then, as the last line, the
 * result object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics when --trace 0, the per-layer ones when
 * --trace 1. Exits 1 when any compile or request failed, 2 on a usage
 * error.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "inputs.h"
#include "support/build_info.h"
#include "support/string_utils.h"
#include "support/trace.h"
#include "workloads.h"

using namespace perfbench;
using treegion::support::jsonEscape;
using treegion::support::strprintf;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
provenanceJson(const std::string &workload, uint64_t seed, bool trace)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const bool flagged = build_type != "Release" || kSanitized;
    return strprintf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
        "\"host\":{\"cpu\":\"%s\",\"nproc\":%u},\"build_info\":%s,"
        "\"bench_build_type\":\"%s\",\"sanitized\":%s,"
        "\"not_release\":%s}",
        jsonEscape(workload).c_str(),
        static_cast<unsigned long long>(seed), trace ? 1 : 0,
        jsonEscape(cpuModel()).c_str(),
        std::thread::hardware_concurrency(),
        treegion::support::buildInfoJson().c_str(),
        jsonEscape(build_type).c_str(), kSanitized ? "true" : "false",
        flagged ? "true" : "false");
}

std::string
metricsJson(const std::vector<Metric> &metrics, bool with_samples)
{
    std::ostringstream os;
    os << '{';
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? "," : "") << '"' << m.name << "\":";
        if (with_samples)
            os << strprintf("{\"value\":%.17g,\"samples\":%llu}", m.value,
                            static_cast<unsigned long long>(m.samples));
        else
            os << strprintf("{\"value\":%.17g,\"unit\":\"%s\"}", m.value,
                            m.unit.c_str());
    }
    os << '}';
    return os.str();
}

/** Checks that need no workload run; prints each failure. */
int
selfTest()
{
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::printf("FAIL %s\n", what.c_str());
            ++failures;
        }
    };
    std::vector<double> hundred, thousand;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    for (int i = 1; i <= 1000; ++i)
        thousand.push_back(i);
    check(percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
    check(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
    check(percentile(hundred, 100) == 100, "p100 of 1..100 is 100");
    check(percentile({7.0}, 99) == 7.0, "p99 of one sample");
    check(percentile({1.0, 2.0}, 50) == 1.0, "p50 of two samples");
    check(percentile(thousand, 99) == 990, "p99 of 1..1000 is 990");
    std::vector<double> chunks = thousand;  // 1..1000, then 1001..2000
    for (int i = 1001; i <= 2000; ++i)
        chunks.push_back(i);
    check(chunkedPercentile(chunks, 1000, 99) == 0.5 * (990 + 1990),
          "chunked p99: median of the chunks' p99");
    check(chunkedPercentile(hundred, 1000, 50) == 50,
          "chunked p50 of a short run: one chunk");
    chunks.push_back(5000);  // trailing partial chunk is dropped
    check(chunkedPercentile(chunks, 1000, 99) == 0.5 * (990 + 1990),
          "chunked p99 drops a partial chunk");
    check(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
    check(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of four");
    check(jsonNumber("{\"a\":{\"p50\":1.5}}", "p50") == 1.5,
          "json number lookup");
    for (const std::string &name : workloadNames()) {
        const std::string a = inputDigest(name, 1);
        check(a == inputDigest(name, 1),
              name + ": same seed, same input texts");
        check(a != inputDigest(name, 2),
              name + ": another seed, other input texts");
    }
    std::printf("selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: tgbench --workload sweep|taildup|serve --seed N "
                 "--seconds S --trace 0|1\n"
                 "       tgbench --selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selfTest();
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
            if (!(seconds > 0.0 && seconds <= 3600.0))
                return usage();
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage();
            trace = value == "1";
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == workload;
    if (!known)
        return usage();

    ::mkdir(".perfbench_out", 0755);
    const std::string span_path =
        trace ? strprintf(".perfbench_out/spans-%s-%llu.jsonl",
                          workload.c_str(),
                          static_cast<unsigned long long>(seed))
              : "";
    if (!span_path.empty())
        std::remove(span_path.c_str());

    const RunOutcome out =
        runWorkload(workload, seed, seconds, trace, span_path);
    const bool correct = out.failed == 0;

    std::ostringstream problems;
    for (size_t i = 0; i < out.problems.size(); ++i)
        problems << (i ? "," : "") << '"' << jsonEscape(out.problems[i])
                 << '"';
    const std::string detail = strprintf(
        "{\"provenance\":%s,\"input_digest\":\"%s\",\"end_to_end\":%s,"
        "\"per_layer\":%s,\"extra\":%s,\"problems\":[%s],"
        "\"spans\":\"%s\"}",
        provenanceJson(workload, seed, trace).c_str(),
        out.input_digest.c_str(),
        metricsJson(out.end_to_end, true).c_str(),
        metricsJson(out.per_layer, true).c_str(),
        metricsJson(out.extra, true).c_str(), problems.str().c_str(),
        span_path.c_str());
    std::ofstream(".perfbench_out/results.jsonl", std::ios::app)
        << detail << '\n';
    std::printf("%s\n", detail.c_str());
    std::printf(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"metrics\":%s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed),
        metricsJson(trace ? out.per_layer : out.end_to_end, false)
            .c_str());
    return correct ? 0 : 1;
}
