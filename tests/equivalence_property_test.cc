/**
 * @file
 * The library's strongest property: for any generated program, any
 * region scheme, any heuristic and any machine width, executing the
 * schedule in the VLIW simulator computes exactly what the original
 * sequential program computes (return value, final memory, and the
 * region-root control trace). This exercises renaming, path
 * predicates, speculation, guarded stores, exit reconciliation
 * copies, tail duplication and dominator parallelism end to end.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "sched/pipeline.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion {
namespace {

using sched::Heuristic;
using sched::RegionScheme;

struct Config
{
    uint64_t seed;
    RegionScheme scheme;
    Heuristic heuristic;
    int width;
};

class EquivalenceProperty : public ::testing::TestWithParam<Config>
{
};

TEST_P(EquivalenceProperty, ScheduleComputesSequentialResults)
{
    const Config config = GetParam();
    workloads::GenParams p;
    p.seed = config.seed;
    p.top_units = 8;
    p.max_depth = 3;
    p.mem_words = 2048;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = config.scheme;
    options.model = sched::MachineModel::custom(config.width);
    options.sched.heuristic = config.heuristic;
    const auto result = sched::runPipeline(transformed, options);

    const auto problems = result.regions.validate(transformed);
    ASSERT_TRUE(problems.empty()) << problems.front();

    for (uint64_t input = 0; input < 4; ++input) {
        auto memory =
            workloads::makeInputMemory(p.mem_words, 7777 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        ASSERT_FALSE(report.incomplete) << report.detail;
        EXPECT_TRUE(report.ok)
            << "seed=" << config.seed << " scheme="
            << sched::regionSchemeName(config.scheme) << " heuristic="
            << sched::heuristicName(config.heuristic) << " width="
            << config.width << " input=" << input << ": "
            << report.detail;
    }
}

std::vector<Config>
makeConfigs()
{
    std::vector<Config> configs;
    const RegionScheme schemes[] = {
        RegionScheme::BasicBlock,      RegionScheme::Slr,
        RegionScheme::Superblock,      RegionScheme::Treegion,
        RegionScheme::TreegionTailDup, RegionScheme::Hyperblock};
    const Heuristic heuristics[] = {
        Heuristic::DependenceHeight, Heuristic::ExitCount,
        Heuristic::GlobalWeight, Heuristic::WeightedCount};
    // Cross seeds with schemes; rotate heuristics and widths so every
    // (scheme, heuristic) and (scheme, width) pair appears.
    const int widths[] = {1, 2, 4, 8};
    int rotation = 0;
    for (uint64_t seed : {11u, 22u, 33u, 44u}) {
        for (const RegionScheme scheme : schemes) {
            configs.push_back({seed, scheme,
                               heuristics[rotation % 4],
                               widths[(rotation / 2) % 4]});
            ++rotation;
        }
    }
    return configs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EquivalenceProperty,
                         ::testing::ValuesIn(makeConfigs()));

TEST(EquivalenceEdgeCases, PbrMaterializationStaysCorrect)
{
    workloads::GenParams p;
    p.seed = 5150;
    p.top_units = 6;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::Treegion;
    options.model = sched::MachineModel::wide4U();
    options.sched.materialize_pbr = true;
    const auto result = sched::runPipeline(transformed, options);
    auto memory = workloads::makeInputMemory(p.mem_words, 31, 100);
    const auto report = vliw::checkEquivalence(original, transformed,
                                               result.schedule, memory);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(EquivalenceEdgeCases, NoDominatorParallelismStaysCorrect)
{
    workloads::GenParams p;
    p.seed = 616;
    p.top_units = 6;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::TreegionTailDup;
    options.model = sched::MachineModel::wide8U();
    options.sched.dominator_parallelism = false;
    const auto result = sched::runPipeline(transformed, options);
    auto memory = workloads::makeInputMemory(p.mem_words, 77, 100);
    const auto report = vliw::checkEquivalence(original, transformed,
                                               result.schedule, memory);
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(EquivalenceEdgeCases, FpHeavyPrograms)
{
    // Exercise the non-unit FMUL/FDIV latencies end to end.
    workloads::GenParams p;
    p.seed = 2718;
    p.top_units = 6;
    p.fp_frac = 0.3;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    for (const RegionScheme scheme :
         {RegionScheme::Treegion, RegionScheme::Superblock}) {
        ir::Function transformed = original.clone();
        sched::PipelineOptions options;
        options.scheme = scheme;
        options.model = sched::MachineModel::wide4U();
        const auto result = sched::runPipeline(transformed, options);
        auto memory = workloads::makeInputMemory(p.mem_words, 99, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_TRUE(report.ok)
            << sched::regionSchemeName(scheme) << ": " << report.detail;
    }
}

TEST(EquivalenceEdgeCases, WideSwitchPrograms)
{
    workloads::GenParams p;
    p.seed = 31337;
    p.top_units = 6;
    p.p_switch = 0.5;
    p.switch_width_min = 16;
    p.switch_width_max = 32;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::Treegion;
    options.model = sched::MachineModel::wide8U();
    const auto result = sched::runPipeline(transformed, options);
    for (uint64_t input = 0; input < 3; ++input) {
        auto memory =
            workloads::makeInputMemory(p.mem_words, 500 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_TRUE(report.ok) << report.detail;
    }
}

TEST(EquivalenceEdgeCases, HighlyBiasedPrograms)
{
    workloads::GenParams p;
    p.seed = 404;
    p.top_units = 6;
    p.bias = 0.99;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("prog", p);
    ir::Function &original = mod->function("main");
    workloads::profileFunction(original, p.mem_words);

    ir::Function transformed = original.clone();
    sched::PipelineOptions options;
    options.scheme = RegionScheme::TreegionTailDup;
    options.model = sched::MachineModel::wide4U();
    const auto result = sched::runPipeline(transformed, options);
    for (uint64_t input = 0; input < 3; ++input) {
        auto memory =
            workloads::makeInputMemory(p.mem_words, 600 + input, 100);
        const auto report = vliw::checkEquivalence(
            original, transformed, result.schedule, memory);
        EXPECT_TRUE(report.ok) << report.detail;
    }
}

// One test per checkEquivalence verdict, each pinning its exact
// detail string. The functions and schedules are hand-built so every
// verdict is reached on purpose rather than by a generator accident.

using ir::BlockId;
using ir::Builder;

/** bb0: RET imm. */
void
buildRet(ir::Function &fn, int64_t imm)
{
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    bu.ret(Builder::I(imm));
}

/** bb0: r0 = MOVI 0; ST [r0 + 3] = value; RET 0. */
void
buildStore(ir::Function &fn, int64_t value)
{
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    const ir::Reg base = bu.movi(0);
    bu.store(base, 3, Builder::I(value));
    bu.ret(Builder::I(0));
}

/** bb0: r0 = MOVI 1; BRU bb0 - never terminates. */
void
buildSpin(ir::Function &fn)
{
    Builder bu(fn);
    const BlockId a = bu.newBlock();
    fn.setEntry(a);
    bu.setInsertPoint(a);
    bu.movi(1);
    bu.bru(a);
}

/** A chain bb0 -> bb1 -> ... -> bb(n-1): RET 0. */
void
buildChain(ir::Function &fn, int n)
{
    Builder bu(fn);
    std::vector<BlockId> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(bu.newBlock());
    fn.setEntry(ids[0]);
    for (int i = 0; i + 1 < n; ++i) {
        bu.setInsertPoint(ids[i]);
        bu.bru(ids[i + 1]);
    }
    bu.setInsertPoint(ids.back());
    bu.ret(Builder::I(0));
}

/** A one-region schedule holding @p ops (one per cycle) whose last op
 * is the exit branch to @p target (kNoBlock: a RET). */
sched::RegionSchedule
hand(BlockId root, std::vector<ir::Op> ops, BlockId target,
     int length = 0)
{
    sched::RegionSchedule rs;
    rs.root = root;
    for (size_t i = 0; i < ops.size(); ++i) {
        sched::ScheduledOp sop;
        sop.op = std::move(ops[i]);
        sop.cycle = static_cast<int>(i);
        rs.ops.push_back(std::move(sop));
    }
    rs.length = std::max(length, static_cast<int>(rs.ops.size()));
    rs.ops.back().cycle = rs.length - 1;
    sched::ScheduledExit exit{};
    exit.op_index = rs.ops.size() - 1;
    exit.target_slot = 0;
    exit.from = root;
    exit.target = target;
    exit.is_ret = target == ir::kNoBlock;
    exit.cycle = rs.length - 1;
    rs.exits.push_back(exit);
    return rs;
}

sched::FunctionSchedule
schedOf(std::vector<sched::RegionSchedule> regions)
{
    sched::FunctionSchedule fs;
    fs.entry = regions.front().root;
    for (sched::RegionSchedule &rs : regions)
        fs.regions.emplace(rs.root, std::move(rs));
    return fs;
}

const std::vector<int64_t> kZeroMemory(8, 0);

TEST(EquivalenceVerdict, OriginalHitsItsOpLimit)
{
    ir::Function original("o");
    buildSpin(original);
    ir::Function transformed("t");
    buildRet(transformed, 0);
    const auto report = vliw::checkEquivalence(original, transformed, {},
                                               kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.incomplete);
    EXPECT_EQ(report.detail, "original sequential run hit its op limit");
}

TEST(EquivalenceVerdict, TransformedHitsItsOpLimit)
{
    ir::Function original("o");
    buildRet(original, 0);
    ir::Function transformed("t");
    buildSpin(transformed);
    const auto report = vliw::checkEquivalence(original, transformed, {},
                                               kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.incomplete);
    EXPECT_EQ(report.detail,
              "transformed sequential run hit its op limit");
    EXPECT_EQ(report.seq_ops, 1u);
}

TEST(EquivalenceVerdict, TailDuplicationChangedTheReturnValue)
{
    ir::Function original("o");
    buildRet(original, 1);
    ir::Function transformed("t");
    buildRet(transformed, 2);
    const auto report = vliw::checkEquivalence(original, transformed, {},
                                               kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.incomplete);
    EXPECT_EQ(report.detail,
              "tail duplication changed the return value: 2 != 1");
}

TEST(EquivalenceVerdict, TailDuplicationChangedFinalMemory)
{
    ir::Function original("o");
    buildStore(original, 5);
    ir::Function transformed("t");
    buildStore(transformed, 6);
    const auto report = vliw::checkEquivalence(original, transformed, {},
                                               kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.incomplete);
    EXPECT_EQ(report.detail, "tail duplication changed final memory");
}

TEST(EquivalenceVerdict, ScheduledRunHitsItsCycleLimit)
{
    ir::Function fn("f");
    buildRet(fn, 0);
    // A 100000-cycle region that branches back to itself: the
    // simulator's 20M-cycle budget runs out after 200 visits.
    const auto schedule =
        schedOf({hand(0, {ir::makeBru(0)}, 0, 100'000)});
    const auto report =
        vliw::checkEquivalence(fn, fn, schedule, kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.incomplete);
    EXPECT_EQ(report.detail, "scheduled run hit its cycle limit");
    EXPECT_EQ(report.seq_ops, 1u);
}

TEST(EquivalenceVerdict, ScheduledReturnValueDiffers)
{
    ir::Function fn("f");
    buildRet(fn, 7);
    const auto schedule = schedOf(
        {hand(0, {ir::makeRet(ir::Operand::makeImm(8))}, ir::kNoBlock)});
    const auto report =
        vliw::checkEquivalence(fn, fn, schedule, kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.incomplete);
    EXPECT_EQ(report.detail, "scheduled return value 8 != sequential 7");
    EXPECT_EQ(report.vliw_cycles, 1u);
}

TEST(EquivalenceVerdict, ScheduledMemoryDiffers)
{
    ir::Function fn("f");
    buildStore(fn, 5);
    const auto schedule = schedOf(
        {hand(0,
              {ir::makeMovi(ir::gpr(0), 0),
               ir::makeStore(ir::gpr(0), 3, ir::Operand::makeImm(6)),
               ir::makeRet(ir::Operand::makeImm(0))},
              ir::kNoBlock)});
    const auto report =
        vliw::checkEquivalence(fn, fn, schedule, kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.detail, "memory[3]: scheduled 6 != sequential 5");
}

TEST(EquivalenceVerdict, ControlTraceIsShorter)
{
    // bb0 -> bb1 -> RET, but the schedule's bb0 region returns
    // directly, so region root bb1 is never entered.
    ir::Function fn("f");
    buildChain(fn, 2);
    const auto schedule = schedOf(
        {hand(0, {ir::makeRet(ir::Operand::makeImm(0))}, ir::kNoBlock),
         hand(1, {ir::makeRet(ir::Operand::makeImm(0))}, ir::kNoBlock)});
    const auto report =
        vliw::checkEquivalence(fn, fn, schedule, kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.detail,
              "control trace mismatch: 1 scheduled region entries vs 2 "
              "expected");
}

TEST(EquivalenceVerdict, ControlTraceDiverges)
{
    // bb0 -> bb1 -> bb2 -> RET, scheduled as bb0 -> bb2 -> bb1 -> RET.
    ir::Function fn("f");
    buildChain(fn, 3);
    const auto schedule = schedOf(
        {hand(0, {ir::makeBru(2)}, 2), hand(2, {ir::makeBru(1)}, 1),
         hand(1, {ir::makeRet(ir::Operand::makeImm(0))}, ir::kNoBlock)});
    const auto report =
        vliw::checkEquivalence(fn, fn, schedule, kZeroMemory);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.detail,
              "control trace mismatch: 3 scheduled region entries vs 3 "
              "expected (first divergence at 1: bb2 vs bb1)");
}

} // namespace
} // namespace treegion
