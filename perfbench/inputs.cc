#include "inputs.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "ir/printer.h"
#include "spans.h"
#include "support/logging.h"
#include "support/string_utils.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace perfbench {

using namespace treegion;

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    // splitmix64: advance by salt + 1 golden-ratio steps, then mix.
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

TextModule
printModule(const ir::Module &mod)
{
    SpanScope span("ir.print");
    std::ostringstream os;
    ir::printModule(os, mod);
    return {mod.name(), os.str(), mod.memWords()};
}

} // namespace

std::vector<TextModule>
makeProxyInputs(uint64_t seed)
{
    const auto proxies = workloads::specint95Proxies();
    std::vector<std::unique_ptr<ir::Module>> mods;
    for (const workloads::ProxySpec &proxy : proxies) {
        SpanScope span("workloads.generate");
        mods.push_back(workloads::buildProxy(proxy));
    }
    std::vector<TextModule> out;
    for (size_t v = 0; v < kProfileVariants; ++v) {
        for (size_t i = 0; i < mods.size(); ++i) {
            // profileFunction rewrites every block and edge weight, so
            // one generated module serves all of its variants.
            SpanScope root("setup", 0);
            {
                SpanScope span("workloads.profile");
                workloads::ProfileOptions profile;
                profile.input_seed =
                    mixSeed(seed, 1000 + v * mods.size() + i);
                for (auto &fn : mods[i]->functions())
                    countWork("workloads.profile.ops",
                              workloads::profileFunction(
                                  *fn, mods[i]->memWords(), profile)
                                  .total_ops);
            }
            out.push_back(printModule(*mods[i]));
            out.back().name = support::strprintf(
                "%s.%zu", proxies[i].name.c_str(), v);
        }
    }
    return out;
}

std::vector<TextModule>
makeServeModules(uint64_t salt, size_t count)
{
    std::vector<TextModule> out;
    const auto proxies = workloads::specint95Proxies();
    for (size_t i = 0; i < count; ++i) {
        SpanScope root("setup", 0);
        const auto &proxy = proxies[i % proxies.size()];
        workloads::GenParams params = proxy.params;
        params.seed = mixSeed(salt, i);
        std::unique_ptr<ir::Module> mod;
        {
            SpanScope span("workloads.generate");
            mod = workloads::generateProgram(
                proxy.name + "_" + std::to_string(i), params);
        }
        out.push_back(printModule(*mod));
    }
    return out;
}

std::vector<int64_t>
gateMemory(size_t mem_words, uint64_t seed, uint64_t index)
{
    return workloads::makeInputMemory(mem_words,
                                      mixSeed(seed, 7000 + index), 100);
}

double
percentile(const std::vector<double> &sorted, int pct)
{
    TG_ASSERT(!sorted.empty() && pct >= 1 && pct <= 100);
    const size_t n = sorted.size();
    const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
    return sorted[std::max<size_t>(rank, 1) - 1];
}

double
chunkedPercentile(const std::vector<double> &samples, size_t chunk,
                  int pct)
{
    TG_ASSERT(!samples.empty() && chunk > 0);
    std::vector<double> per_chunk;
    for (size_t at = 0; at == 0 || at + chunk <= samples.size();
         at += chunk) {
        const size_t end = std::min(samples.size(), at + chunk);
        std::vector<double> sorted(samples.begin() + at,
                                   samples.begin() + end);
        std::sort(sorted.begin(), sorted.end());
        per_chunk.push_back(percentile(sorted, pct));
    }
    return median(per_chunk);
}

double
median(std::vector<double> values)
{
    TG_ASSERT(!values.empty());
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

size_t
jsonFind(const std::string &json, const std::string &key, size_t from)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = json.find(needle, from);
    return at == std::string::npos ? at : at + needle.size();
}

double
jsonNumber(const std::string &json, const std::string &key, size_t from)
{
    const size_t at = jsonFind(json, key, from);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + at, nullptr);
}

} // namespace perfbench
