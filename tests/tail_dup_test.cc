/**
 * @file
 * Tail duplication tests: semantic preservation, profile flow
 * conservation, the Fig. 12 example (duplicating a merge point into a
 * treegion), and the incrementally maintained predecessor lists.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/profile.h"
#include "fuzz/mutate.h"
#include "ir/builder.h"
#include "region/formation.h"
#include "support/rng.h"
#include "vliw/interpreter.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::region {
namespace {

using ir::BlockId;
using ir::Builder;
using ir::CmpKind;
using ir::Function;
using ir::Reg;

/** Diamond with a shared tail: a -> (b|c) -> tail -> ret. */
struct SharedTail
{
    Function fn{"f"};
    BlockId a, b, c, tail;

    SharedTail()
    {
        Builder bu(fn);
        a = bu.newBlock();
        b = bu.newBlock();
        c = bu.newBlock();
        tail = bu.newBlock();
        fn.setEntry(a);

        bu.setInsertPoint(a);
        const Reg base = bu.movi(0);
        const Reg x = bu.load(base, 1);
        bu.condBr(CmpKind::LT, Builder::R(x), Builder::I(50), b, c);

        bu.setInsertPoint(b);
        bu.store(base, 2, Builder::I(1));
        bu.bru(tail);

        bu.setInsertPoint(c);
        bu.store(base, 2, Builder::I(2));
        bu.bru(tail);

        bu.setInsertPoint(tail);
        const Reg y = bu.load(base, 2);
        bu.ret(Builder::R(y));

        fn.block(a).setWeight(10);
        fn.block(a).edgeWeights() = {6, 4};
        fn.block(b).setWeight(6);
        fn.block(b).edgeWeights() = {6};
        fn.block(c).setWeight(4);
        fn.block(c).edgeWeights() = {4};
        fn.block(tail).setWeight(10);
    }
};

/**
 * Every live block's maintained predecessor list must equal what a
 * full rebuild gives: Function::clone() leaves the copy's lists stale,
 * so its predsOf() rebuilds them from the terminators.
 */
void
expectPredsMatchRebuild(const Function &fn, const std::string &what)
{
    Function rebuilt = fn.clone();
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        EXPECT_EQ(b.preds(), rebuilt.predsOf(b.id()))
            << what << ": bb" << b.id();
    });
}

TEST(TailDuplicateEdge, SplitsProfileFlow)
{
    SharedTail g;
    const BlockId clone = tailDuplicateEdge(g.fn, g.b, 0);
    EXPECT_EQ(g.fn.block(clone).originalId(), g.tail);
    EXPECT_DOUBLE_EQ(g.fn.block(clone).weight(), 6.0);
    EXPECT_DOUBLE_EQ(g.fn.block(g.tail).weight(), 4.0);
    // b now targets the clone; c still targets the original.
    EXPECT_EQ(g.fn.block(g.b).successors()[0], clone);
    EXPECT_EQ(g.fn.block(g.c).successors()[0], g.tail);
    EXPECT_FALSE(g.fn.isMergePoint(g.tail));
    EXPECT_TRUE(analysis::checkProfileConsistency(g.fn).empty());
}

TEST(TailDuplicateEdge, PreservesSemantics)
{
    SharedTail g;
    Function copy = g.fn.clone();
    tailDuplicateEdge(copy, g.b, 0);

    for (int64_t x : {10, 90}) {
        std::vector<int64_t> mem(64, 0);
        mem[1] = x;
        const auto before = vliw::runSequential(g.fn, mem);
        const auto after = vliw::runSequential(copy, mem);
        ASSERT_TRUE(before.completed && after.completed);
        EXPECT_EQ(before.ret_value, after.ret_value);
        EXPECT_EQ(before.memory, after.memory);
    }
}

TEST(TreegionTailDup, Fig12AbsorbsBothCopies)
{
    SharedTail g;
    TailDupLimits limits;
    RegionSet set = formTreegionsTailDup(g.fn, limits);
    EXPECT_TRUE(set.validate(g.fn).empty());
    // The whole CFG becomes one treegion: tail is duplicated for one
    // side and directly absorbed for the other (Fig. 12), so every
    // original execution path is a unique tree path.
    EXPECT_EQ(set.regions().size(), 1u);
    const Region &tree = set.regions()[0];
    EXPECT_EQ(tree.pathCount(), 2u);
    EXPECT_EQ(tree.size(), 5u);
}

TEST(TreegionTailDup, MergeLimitBlocksWideMerges)
{
    // A 5-way merge with merge_limit 4 must stay unduplicated unless
    // it is a function exit.
    Function fn("f");
    Builder bu(fn);
    const BlockId entry = bu.newBlock();
    std::vector<BlockId> arms;
    for (int i = 0; i < 5; ++i)
        arms.push_back(bu.newBlock());
    const BlockId join = bu.newBlock();
    const BlockId done = bu.newBlock();
    fn.setEntry(entry);

    bu.setInsertPoint(entry);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    const Reg sel = bu.binary(ir::Opcode::REM, Builder::R(x),
                              Builder::I(5));
    bu.mwbr(sel, arms);
    for (const BlockId arm : arms) {
        bu.setInsertPoint(arm);
        bu.store(base, 3, Builder::I(arm));
        bu.bru(join);
    }
    bu.setInsertPoint(join);
    bu.store(base, 4, Builder::I(9));
    bu.bru(done);
    bu.setInsertPoint(done);
    bu.ret(Builder::I(0));
    workloads::GenParams dummy;
    (void)dummy;
    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(1.0);
        blk.edgeWeights().assign(blk.successors().size(),
                                 1.0 /
                                     std::max<size_t>(
                                         1, blk.successors().size()));
    });

    TailDupLimits limits;
    limits.merge_limit = 4;
    ir::Function f = fn.clone();
    RegionSet set = formTreegionsTailDup(f, limits);
    EXPECT_TRUE(set.validate(f).empty());
    // join (5 preds, has successors) must not be duplicated: the
    // total op count is unchanged except possibly for `done`
    // (single-pred absorption adds nothing).
    EXPECT_EQ(f.totalOps(), fn.totalOps());

    // Raising the limit to 5 lets the join be duplicated.
    TailDupLimits loose;
    loose.merge_limit = 5;
    loose.expansion_limit = 8.0;
    ir::Function f2 = fn.clone();
    formTreegionsTailDup(f2, loose);
    EXPECT_GT(f2.totalOps(), fn.totalOps());
}

TEST(TreegionTailDup, FunctionExitsExemptFromMergeLimit)
{
    // A RET block with many predecessors is still duplicated
    // ("merge points with no successors in the CFG, such as function
    // exits").
    Function fn("f");
    Builder bu(fn);
    const BlockId entry = bu.newBlock();
    std::vector<BlockId> arms;
    for (int i = 0; i < 6; ++i)
        arms.push_back(bu.newBlock());
    const BlockId ret = bu.newBlock();
    fn.setEntry(entry);

    bu.setInsertPoint(entry);
    const Reg base = bu.movi(0);
    const Reg x = bu.load(base, 1);
    const Reg sel = bu.binary(ir::Opcode::REM, Builder::R(x),
                              Builder::I(6));
    bu.mwbr(sel, arms);
    for (const BlockId arm : arms) {
        bu.setInsertPoint(arm);
        bu.store(base, 2, Builder::I(arm));
        bu.bru(ret);
    }
    bu.setInsertPoint(ret);
    const Reg y = bu.load(base, 2);
    bu.ret(Builder::R(y));
    fn.forEachBlockMut([](ir::BasicBlock &blk) {
        blk.setWeight(1.0);
        blk.edgeWeights().assign(blk.successors().size(),
                                 1.0 /
                                     std::max<size_t>(
                                         1, blk.successors().size()));
    });

    TailDupLimits limits;
    limits.merge_limit = 4;
    limits.expansion_limit = 4.0;
    RegionSet set = formTreegionsTailDup(fn, limits);
    EXPECT_TRUE(set.validate(fn).empty());
    // The RET block was duplicated into the arms.
    size_t ret_copies = 0;
    fn.forEachBlock([&](const ir::BasicBlock &blk) {
        if (blk.originalId() == ret)
            ++ret_copies;
    });
    EXPECT_GT(ret_copies, 1u);
}

TEST(TailDup, SemanticsPreservedOnGeneratedPrograms)
{
    for (uint64_t seed : {3u, 14u, 159u}) {
        workloads::GenParams p;
        p.seed = seed;
        p.top_units = 8;
        p.mem_words = 1024;
        auto mod = workloads::generateProgram("x", p);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, 1024);

        for (int variant = 0; variant < 2; ++variant) {
            ir::Function f = fn.clone();
            if (variant == 0)
                formTreegionsTailDup(f, {});
            else
                formSuperblocks(f, {});
            EXPECT_TRUE(
                analysis::checkProfileConsistency(f, 1e-6).empty())
                << "seed " << seed << " variant " << variant;
            for (uint64_t input = 0; input < 3; ++input) {
                auto mem = workloads::makeInputMemory(1024,
                                                      500 + input, 100);
                const auto before = vliw::runSequential(fn, mem);
                const auto after = vliw::runSequential(f, mem);
                ASSERT_TRUE(before.completed && after.completed);
                EXPECT_EQ(before.ret_value, after.ret_value);
                EXPECT_EQ(before.memory, after.memory);
            }
        }
    }
}

TEST(PredLists, CloneAppendsTheCloneToEachSuccessor)
{
    SharedTail g;
    EXPECT_EQ(g.fn.predsOf(g.tail), (std::vector<BlockId>{g.b, g.c}));
    const BlockId copy = g.fn.cloneBlock(g.b);
    EXPECT_EQ(g.fn.block(g.tail).preds(),
              (std::vector<BlockId>{g.b, g.c, copy}));
    EXPECT_TRUE(g.fn.block(copy).preds().empty());
    expectPredsMatchRebuild(g.fn, "clone");
}

TEST(PredLists, RetargetSlotMovesOneEntry)
{
    SharedTail g;
    g.fn.predsOf(g.a);  // build the lists
    g.fn.retargetSlot(g.a, 0, g.c);  // a -> (c|c)
    EXPECT_EQ(g.fn.block(g.c).preds(), (std::vector<BlockId>{g.a, g.a}));
    EXPECT_TRUE(g.fn.block(g.b).preds().empty());
    expectPredsMatchRebuild(g.fn, "retarget");

    g.fn.retargetEdge(g.a, g.c, g.b);  // first c slot back to b
    EXPECT_EQ(g.fn.block(g.b).preds(), (std::vector<BlockId>{g.a}));
    EXPECT_EQ(g.fn.block(g.c).preds(), (std::vector<BlockId>{g.a}));
    expectPredsMatchRebuild(g.fn, "retarget back");

    // A lower-id predecessor lands in front of the existing ones.
    g.fn.retargetSlot(g.a, 1, g.tail);
    EXPECT_EQ(g.fn.block(g.tail).preds(),
              (std::vector<BlockId>{g.a, g.b, g.c}));
    expectPredsMatchRebuild(g.fn, "retarget below");
}

TEST(PredLists, RemoveBlockDropsItsEdges)
{
    SharedTail g;
    g.fn.predsOf(g.a);
    g.fn.retargetSlot(g.a, 1, g.b);  // c loses its only predecessor
    g.fn.removeBlock(g.c);
    EXPECT_EQ(g.fn.block(g.tail).preds(), (std::vector<BlockId>{g.b}));
    expectPredsMatchRebuild(g.fn, "remove");
}

/** A three-way MWBR whose first two slots both target one block. */
struct DoubleSlotMwbr
{
    Function fn{"f"};
    BlockId m, x, y, dead;

    DoubleSlotMwbr()
    {
        Builder bu(fn);
        m = bu.newBlock();
        x = bu.newBlock();
        y = bu.newBlock();
        dead = bu.newBlock();
        fn.setEntry(m);
        bu.setInsertPoint(m);
        const Reg sel = bu.movi(1);
        bu.mwbr(sel, {x, x, y});
        bu.setInsertPoint(x);
        bu.ret(Builder::I(1));
        bu.setInsertPoint(y);
        bu.ret(Builder::I(2));
        // Unreachable, and it too branches to x through two slots.
        bu.setInsertPoint(dead);
        const Reg sel2 = bu.movi(0);
        bu.mwbr(sel2, {x, y, x});
        fn.block(m).edgeWeights() = {3, 2, 5};
        fn.block(x).setWeight(5);
    }
};

TEST(PredLists, DuplicatingOneOfTwoMwbrSlotsKeepsTheOriginal)
{
    DoubleSlotMwbr g;
    EXPECT_EQ(g.fn.predsOf(g.x),
              (std::vector<BlockId>{g.m, g.m, g.dead, g.dead}));
    const BlockId clone = tailDuplicateEdge(g.fn, g.m, 0);
    // The other slot still reaches the original: duplicating a merge
    // point never orphans it.
    EXPECT_EQ(g.fn.block(g.x).preds(),
              (std::vector<BlockId>{g.m, g.dead, g.dead}));
    EXPECT_EQ(g.fn.block(clone).preds(), (std::vector<BlockId>{g.m}));
    expectPredsMatchRebuild(g.fn, "duplicate");

    g.fn.removeBlock(g.dead);
    EXPECT_EQ(g.fn.block(g.x).preds(), (std::vector<BlockId>{g.m}));
    EXPECT_EQ(g.fn.block(g.y).preds(), (std::vector<BlockId>{g.m}));
    expectPredsMatchRebuild(g.fn, "remove");
}

TEST(PredLists, FormationKeepsListsExactOnFuzzEnvelope)
{
    support::Rng rng(2718);
    size_t clones = 0;
    for (int i = 0; i < 12; ++i) {
        const workloads::GenParams params = fuzz::mutateParams(rng);
        auto mod = workloads::generateProgram("preds", params);
        ir::Function &fn = mod->function("main");
        workloads::profileFunction(fn, params.mem_words);
        for (int variant = 0; variant < 2; ++variant) {
            ir::Function f = fn.clone();
            const size_t before = f.numBlockIds();
            if (variant == 0)
                formTreegionsTailDup(f, {});
            else
                formSuperblocks(f, {});
            clones += f.numBlockIds() - before;
            expectPredsMatchRebuild(
                f, "program " + std::to_string(i) + " variant " +
                       std::to_string(variant));
        }
    }
    EXPECT_GT(clones, 0u);  // the programs did exercise duplication
}

} // namespace
} // namespace treegion::region
