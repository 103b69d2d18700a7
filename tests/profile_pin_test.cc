/**
 * @file
 * Pins of the sequential interpreter and the training-input profiler.
 *
 * Every digest below was computed by the hash-map interpreter that
 * preceded the decoded engine, so a faster engine must reproduce the
 * profile weights (as printed and as raw doubles), the ProfileSummary
 * and every ExecResult field bit for bit. Inputs: the 8 SPECint95
 * proxies under 4 input families, every .tir in examples/, the frozen
 * golden fuzz inputs and the fuzz corpus (whose MWBR repro halts
 * without completing).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/parser.h"
#include "ir/printer.h"
#include "support/hash.h"
#include "support/string_utils.h"
#include "vliw/interpreter.h"
#include "workloads/profiler.h"
#include "workloads/spec_proxy.h"

namespace treegion {
namespace {

namespace fs = std::filesystem;

/** Fold the raw bytes of @p value into @p h. */
template <typename T>
void
fold(uint64_t &h, const T &value)
{
    h = support::fnv1a64(
        std::string_view(reinterpret_cast<const char *>(&value),
                         sizeof(value)),
        h);
}

template <typename T>
void
foldVector(uint64_t &h, const std::vector<T> &values)
{
    fold(h, values.size());
    h = support::fnv1a64(
        std::string_view(reinterpret_cast<const char *>(values.data()),
                         values.size() * sizeof(T)),
        h);
}

/** Printed module text plus every block and edge weight's bits. */
uint64_t
profileDigest(const ir::Module &mod)
{
    uint64_t h = support::fnv1a64(ir::moduleToString(mod));
    for (const auto &fn : mod.functions()) {
        fn->forEachBlock([&](const ir::BasicBlock &b) {
            fold(h, b.weight());
            foldVector(h, b.edgeWeights());
        });
    }
    return h;
}

uint64_t
execDigest(const vliw::ExecResult &r)
{
    uint64_t h = support::kFnvOffsetBasis;
    fold(h, r.completed);
    fold(h, r.ret_value);
    foldVector(h, r.memory);
    foldVector(h, r.trace);
    fold(h, r.ops_executed);
    fold(h, r.wrapped_stores);
    return h;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every .tir the pins cover, sorted per directory. */
std::vector<fs::path>
tirInputs()
{
    std::vector<fs::path> out;
    for (const char *dir : {TREEGION_EXAMPLES_DIR,
                            TREEGION_GOLDEN_DIR "/inputs",
                            TREEGION_CORPUS_DIR}) {
        std::vector<fs::path> here;
        for (const auto &entry : fs::directory_iterator(dir)) {
            if (entry.path().extension() == ".tir")
                here.push_back(entry.path());
        }
        std::sort(here.begin(), here.end());
        out.insert(out.end(), here.begin(), here.end());
    }
    return out;
}

std::unique_ptr<ir::Module>
parseFile(const fs::path &path)
{
    std::string error;
    auto mod = ir::parseModule(readFile(path), &error);
    EXPECT_TRUE(mod) << path << ": " << error;
    return mod;
}

/** The four input families each proxy is profiled under. */
constexpr uint64_t kInputSeeds[] = {42, 7, 1001, 0x5eed5eedULL};

/** One pinned profile: label, digest, ProfileSummary. */
struct ProfilePin
{
    const char *label;
    uint64_t digest;
    int completed_runs;
    uint64_t total_ops;
};

const std::vector<ProfilePin> kProfilePins = {
    {"compress/42", 0x51bf0e6690361c97ULL, 20, 10753ULL},
    {"compress/7", 0xf01f29a6200c03d3ULL, 20, 10194ULL},
    {"compress/1001", 0x610afeacb9b645feULL, 20, 10443ULL},
    {"compress/1592614637", 0x8c50f60c829e70b6ULL, 20, 10621ULL},
    {"gcc/42", 0xe3a4857f3756bc06ULL, 20, 51933ULL},
    {"gcc/7", 0x4afec23288fec286ULL, 20, 50819ULL},
    {"gcc/1001", 0x9abd7957f4f7a7d6ULL, 20, 50955ULL},
    {"gcc/1592614637", 0x9f774b9ab55e2752ULL, 20, 52606ULL},
    {"go/42", 0xeb37ee314e7a9dbbULL, 20, 38396ULL},
    {"go/7", 0x963abe561cce646aULL, 20, 36480ULL},
    {"go/1001", 0xe65b69dddbad915dULL, 20, 37792ULL},
    {"go/1592614637", 0x77662312eec6649eULL, 20, 35808ULL},
    {"ijpeg/42", 0x38b7d8182cd4e271ULL, 20, 34101ULL},
    {"ijpeg/7", 0xd0c1db419a6f1703ULL, 20, 34190ULL},
    {"ijpeg/1001", 0xec9884dcd0fca529ULL, 20, 34077ULL},
    {"ijpeg/1592614637", 0x864ab9a26a775849ULL, 20, 34139ULL},
    {"li/42", 0x5ffbcab663e6a9c3ULL, 20, 13363ULL},
    {"li/7", 0xdf7a80fc27944471ULL, 20, 13231ULL},
    {"li/1001", 0x0572290d1cb5a764ULL, 20, 13345ULL},
    {"li/1592614637", 0x495b42c2da046e96ULL, 20, 13093ULL},
    {"m88ksim/42", 0x6418136459b65629ULL, 20, 31251ULL},
    {"m88ksim/7", 0xf5057be2e1c90110ULL, 20, 31235ULL},
    {"m88ksim/1001", 0xffd3be8127e284e3ULL, 20, 32468ULL},
    {"m88ksim/1592614637", 0xfd3492d0a30d3e87ULL, 20, 31417ULL},
    {"perl/42", 0xf666767fe92ab0a4ULL, 20, 68136ULL},
    {"perl/7", 0x7a508a4fb34318dcULL, 20, 68673ULL},
    {"perl/1001", 0xcd902c550d18c811ULL, 20, 70055ULL},
    {"perl/1592614637", 0xc4bb562c6160fd5cULL, 20, 69201ULL},
    {"vortex/42", 0x66940cd1cc9eb367ULL, 20, 36606ULL},
    {"vortex/7", 0x95841d761c70fc07ULL, 20, 36871ULL},
    {"vortex/1001", 0x3339be032d7ce10dULL, 20, 36694ULL},
    {"vortex/1592614637", 0x741addbc7cb0d811ULL, 20, 36426ULL},
    {"sum_loop.tir", 0x50828db571efb89aULL, 40, 2300ULL},
    {"fuzz01.tir", 0x73d6841db497f9baULL, 20, 3302ULL},
    {"fuzz02.tir", 0x112b2decd5ce1e89ULL, 20, 6894ULL},
    {"fuzz03.tir", 0x48887f9ec5eba6baULL, 20, 2797ULL},
    {"fuzz04.tir", 0x26addffa74e2470bULL, 20, 3490ULL},
    {"fuzz05.tir", 0xd5208ae77a371cb9ULL, 20, 21553ULL},
    {"fuzz06.tir", 0xa5642e9ad6b7bda7ULL, 20, 6056ULL},
    {"fuzz07.tir", 0x0390bb499ec6bc15ULL, 20, 8786ULL},
    {"fuzz08.tir", 0x1802cd5345b146fdULL, 20, 4601ULL},
    {"fuzz09.tir", 0x08924aa9dd5f7105ULL, 20, 3408ULL},
    {"fuzz10.tir", 0x2244fa2c7f28b9d4ULL, 20, 10402ULL},
    {"crash-mwbr-selector.tir", 0x18849bf3914b549aULL, 0, 0ULL},
};

/** Profile @p mod's every function; @return the summed summary. */
workloads::ProfileSummary
profileModule(ir::Module &mod, const workloads::ProfileOptions &options)
{
    workloads::ProfileSummary sum;
    for (auto &fn : mod.functions()) {
        const auto s =
            workloads::profileFunction(*fn, mod.memWords(), options);
        sum.completed_runs += s.completed_runs;
        sum.total_ops += s.total_ops;
    }
    return sum;
}

void
checkProfile(const std::string &label, ir::Module &mod,
             const workloads::ProfileOptions &options, size_t &row)
{
    const workloads::ProfileSummary s = profileModule(mod, options);
    const uint64_t digest = profileDigest(mod);
    const std::string got = support::strprintf(
        "{\"%s\", 0x%016llxULL, %d, %lluULL},", label.c_str(),
        static_cast<unsigned long long>(digest), s.completed_runs,
        static_cast<unsigned long long>(s.total_ops));
    ASSERT_LT(row, kProfilePins.size()) << "unpinned: " << got;
    const ProfilePin &pin = kProfilePins[row++];
    EXPECT_EQ(label, pin.label);
    EXPECT_EQ(digest, pin.digest) << got;
    EXPECT_EQ(s.completed_runs, pin.completed_runs) << got;
    EXPECT_EQ(s.total_ops, pin.total_ops) << got;
}

TEST(ProfilePin, ProfilesAreUnchanged)
{
    size_t row = 0;
    for (const workloads::ProxySpec &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        for (const uint64_t seed : kInputSeeds) {
            workloads::ProfileOptions options;
            options.input_seed = seed;
            checkProfile(support::strprintf("%s/%llu", spec.name.c_str(),
                                            static_cast<unsigned long long>(
                                                seed)),
                         *mod, options, row);
        }
    }
    for (const fs::path &path : tirInputs()) {
        auto mod = parseFile(path);
        ASSERT_TRUE(mod);
        checkProfile(path.filename().string(), *mod, {}, row);
    }
    EXPECT_EQ(row, kProfilePins.size());
}

/** One pinned sequential run: label, ExecResult digest, op count. */
struct ExecPin
{
    const char *label;
    uint64_t digest;
    uint64_t ops_executed;
};

const std::vector<ExecPin> kExecPins = {
    {"compress/1000", 0x92d59f80c47f7385ULL, 504ULL},
    {"compress/1001", 0xc63322a47363425aULL, 512ULL},
    {"gcc/1000", 0x3c9eed6f040a6293ULL, 2965ULL},
    {"gcc/1001", 0xaac0d4d518c2d148ULL, 2811ULL},
    {"go/1000", 0x0f519ddf20ee0126ULL, 2127ULL},
    {"go/1001", 0x12556291b6a3174cULL, 1702ULL},
    {"ijpeg/1000", 0xdfb2542d851129a8ULL, 1704ULL},
    {"ijpeg/1001", 0xb02b1385a5d5f7ccULL, 1704ULL},
    {"li/1000", 0xbc8214c3e6e63306ULL, 677ULL},
    {"li/1001", 0x951347ed9c202c7cULL, 706ULL},
    {"m88ksim/1000", 0x7edacbf7c25443d0ULL, 1458ULL},
    {"m88ksim/1001", 0x439c063d570d6cf9ULL, 1513ULL},
    {"perl/1000", 0x601d41e147c3ec62ULL, 3462ULL},
    {"perl/1001", 0xf0232dc6a02ca690ULL, 3661ULL},
    {"vortex/1000", 0x3557cd5725d4d710ULL, 1858ULL},
    {"vortex/1001", 0xb9e76fb3f6f35275ULL, 1788ULL},
    {"sum_loop.tir", 0x0ed8e2391d30f72bULL, 108ULL},
    {"sum_loop.tir", 0x2c4374933cab83f5ULL, 7ULL},
    {"fuzz01.tir", 0xca351702ec2e7e10ULL, 162ULL},
    {"fuzz02.tir", 0xd78f48fd39572a6bULL, 333ULL},
    {"fuzz03.tir", 0x7b427d3f2616c0c0ULL, 140ULL},
    {"fuzz04.tir", 0xb34f0382bd859eb9ULL, 180ULL},
    {"fuzz05.tir", 0xc59ef13f51a80717ULL, 1026ULL},
    {"fuzz06.tir", 0x72b6d184022989c1ULL, 348ULL},
    {"fuzz07.tir", 0xca09947f19f4a4b3ULL, 447ULL},
    {"fuzz08.tir", 0x4d5c9c953edfaab7ULL, 231ULL},
    {"fuzz09.tir", 0xcb7bc4cebebbe0abULL, 168ULL},
    {"fuzz10.tir", 0x219b166b33314626ULL, 516ULL},
    {"crash-mwbr-selector.tir", 0x1e9d675a223879b3ULL, 5ULL},
    {"sum_loop.tir/max_ops=0", 0x78a1e1d2e24201c3ULL, 1ULL},
    {"sum_loop.tir/max_ops=1", 0x8ba7a07aa902b900ULL, 2ULL},
    {"sum_loop.tir/max_ops=105", 0x79c3b009b94b96f7ULL, 107ULL},
    {"sum_loop.tir/max_ops=106", 0x79c3b009b94b96f7ULL, 107ULL},
    {"sum_loop.tir/max_ops=107", 0x0ed8e2391d30f72bULL, 108ULL},
    {"sum_loop.tir/max_ops=108", 0x0ed8e2391d30f72bULL, 108ULL},
    {"sum_loop.tir/max_ops=1000", 0x0ed8e2391d30f72bULL, 108ULL},
};

void
checkExec(const std::string &label, ir::Function &fn,
          std::vector<int64_t> memory, uint64_t max_ops, size_t &row)
{
    vliw::InterpOptions options;
    options.max_ops = max_ops;
    const vliw::ExecResult r =
        vliw::runSequential(fn, std::move(memory), options);
    const uint64_t digest = execDigest(r);
    const std::string got = support::strprintf(
        "{\"%s\", 0x%016llxULL, %lluULL},", label.c_str(),
        static_cast<unsigned long long>(digest),
        static_cast<unsigned long long>(r.ops_executed));
    ASSERT_LT(row, kExecPins.size()) << "unpinned: " << got;
    const ExecPin &pin = kExecPins[row++];
    EXPECT_EQ(label, pin.label);
    EXPECT_EQ(digest, pin.digest) << got;
    EXPECT_EQ(r.ops_executed, pin.ops_executed) << got;
}

TEST(ProfilePin, ExecResultsAreUnchanged)
{
    size_t row = 0;
    const vliw::InterpOptions defaults;
    for (const workloads::ProxySpec &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        for (const uint64_t seed : {1000ULL, 1001ULL}) {
            checkExec(support::strprintf(
                          "%s/%llu", spec.name.c_str(),
                          static_cast<unsigned long long>(seed)),
                      mod->function("main"),
                      workloads::makeInputMemory(mod->memWords(), seed,
                                                 100),
                      defaults.max_ops, row);
        }
    }
    for (const fs::path &path : tirInputs()) {
        auto mod = parseFile(path);
        ASSERT_TRUE(mod);
        for (const auto &fn : mod->functions()) {
            checkExec(path.filename().string(), *fn,
                      workloads::makeInputMemory(mod->memWords(), 1000,
                                                 100),
                      defaults.max_ops, row);
        }
    }
    // Op limits around the exact length of one completed run: the
    // terminator is never limit-checked, so a limit one below the run
    // length still completes, and smaller ones stop mid-block.
    auto mod = parseFile(fs::path(TREEGION_EXAMPLES_DIR) / "sum_loop.tir");
    ASSERT_TRUE(mod);
    ir::Function &fn = mod->function("main");
    for (const uint64_t limit :
         {0ULL, 1ULL, 105ULL, 106ULL, 107ULL, 108ULL, 1000ULL}) {
        checkExec(support::strprintf(
                      "sum_loop.tir/max_ops=%llu",
                      static_cast<unsigned long long>(limit)),
                  fn, workloads::makeInputMemory(mod->memWords(), 1000,
                                                 100),
                  limit, row);
    }
    EXPECT_EQ(row, kExecPins.size());
}

TEST(ProfilePin, MalformedMwbrHaltsWithoutCompleting)
{
    auto mod = parseFile(fs::path(TREEGION_CORPUS_DIR) /
                         "crash-mwbr-selector.tir");
    ASSERT_TRUE(mod);
    const vliw::ExecResult r = vliw::runSequential(
        mod->function("main"),
        workloads::makeInputMemory(mod->memWords(), 1000, 100));
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.ret_value, 0);
    EXPECT_EQ(r.wrapped_stores, 0u);
    EXPECT_EQ(r.trace, std::vector<ir::BlockId>{0});
    EXPECT_EQ(r.memory,
              workloads::makeInputMemory(mod->memWords(), 1000, 100));
}

} // namespace
} // namespace treegion
