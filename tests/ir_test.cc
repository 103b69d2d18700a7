/**
 * @file
 * Unit tests for the IR layer: opcodes, ops, blocks, functions,
 * builder, verifier, cloning.
 */

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/verifier.h"

namespace treegion::ir {
namespace {

TEST(Opcode, MetadataMatchesPaperLatencies)
{
    EXPECT_EQ(opcodeInfo(Opcode::ADD).latency, 1);
    EXPECT_EQ(opcodeInfo(Opcode::LD).latency, 2);
    EXPECT_EQ(opcodeInfo(Opcode::FMUL).latency, 3);
    EXPECT_EQ(opcodeInfo(Opcode::FDIV).latency, 9);
    EXPECT_TRUE(opcodeInfo(Opcode::BRCT).isBranch);
    EXPECT_TRUE(opcodeInfo(Opcode::LD).isLoad);
    EXPECT_TRUE(opcodeInfo(Opcode::ST).isStore);
}

TEST(Opcode, ParseRoundTrip)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        const Opcode op = static_cast<Opcode>(i);
        Opcode parsed;
        ASSERT_TRUE(parseOpcode(opcodeName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    Opcode dummy;
    EXPECT_FALSE(parseOpcode("NOSUCH", dummy));
}

TEST(Opcode, EvalCmpAllKinds)
{
    EXPECT_TRUE(evalCmp(CmpKind::EQ, 3, 3));
    EXPECT_TRUE(evalCmp(CmpKind::NE, 3, 4));
    EXPECT_TRUE(evalCmp(CmpKind::LT, -1, 0));
    EXPECT_TRUE(evalCmp(CmpKind::LE, 2, 2));
    EXPECT_TRUE(evalCmp(CmpKind::GT, 5, 4));
    EXPECT_TRUE(evalCmp(CmpKind::GE, 5, 5));
    EXPECT_FALSE(evalCmp(CmpKind::LT, 1, 1));
}

TEST(Opcode, NegateCmpKindIsInvolution)
{
    for (CmpKind k : {CmpKind::EQ, CmpKind::NE, CmpKind::LT,
                      CmpKind::LE, CmpKind::GT, CmpKind::GE}) {
        EXPECT_EQ(negateCmpKind(negateCmpKind(k)), k);
        // The negation must be the logical complement.
        for (int64_t a = -2; a <= 2; ++a) {
            for (int64_t b = -2; b <= 2; ++b) {
                EXPECT_NE(evalCmp(k, a, b),
                          evalCmp(negateCmpKind(k), a, b));
            }
        }
    }
}

TEST(Opcode, EvalAluDismissible)
{
    EXPECT_EQ(evalAlu(Opcode::FDIV, 10, 0), 0);
    EXPECT_EQ(evalAlu(Opcode::FDIV, INT64_MIN, -1), 0);
    EXPECT_EQ(evalAlu(Opcode::REM, 10, 0), 0);
    EXPECT_EQ(evalAlu(Opcode::REM, 10, 3), 1);
    EXPECT_EQ(evalAlu(Opcode::SHL, 1, 64 + 3), 8);  // masked shift
}

TEST(Op, UsedRegsIncludesGuard)
{
    Op op = makeStore(gpr(1), 4, Operand::makeReg(gpr(2)));
    op.guard = pred(3);
    const auto uses = op.usedRegs();
    EXPECT_EQ(uses.size(), 3u);
    EXPECT_EQ(uses[2], pred(3));
}

TEST(Op, RenameUsesAndDefs)
{
    Op op = makeBinary(Opcode::ADD, gpr(5), Operand::makeReg(gpr(1)),
                       Operand::makeReg(gpr(1)));
    op.renameUses(gpr(1), gpr(9));
    EXPECT_EQ(op.srcs[0].reg, gpr(9));
    EXPECT_EQ(op.srcs[1].reg, gpr(9));
    op.renameDefs(gpr(5), gpr(7));
    EXPECT_EQ(op.dsts[0], gpr(7));
}

TEST(Op, StrFormats)
{
    EXPECT_EQ(makeMovi(gpr(1), -5).str(), "r1 = MOVI -5");
    EXPECT_EQ(makeLoad(gpr(2), gpr(0), 8).str(), "r2 = LD [r0 + 8]");
    EXPECT_EQ(makeStore(gpr(0), 4, Operand::makeImm(7)).str(),
              "ST [r0 + 4], 7");
    EXPECT_EQ(makeBrct(pred(1), 3, 4).str(), "BRCT p1, bb3, bb4");
    EXPECT_EQ(makeBru(9).str(), "BRU bb9");
    Op cmpp = makeCmpp(CmpKind::GT, pred(1), pred(2),
                       Operand::makeReg(gpr(1)), Operand::makeReg(gpr(2)));
    EXPECT_EQ(cmpp.str(), "p1,p2 = CMPP.GT r1, r2");
}

TEST(Function, CreateBlocksAndEdges)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId c = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.condBr(CmpKind::LT, Builder::I(0), Builder::I(1), b, c);
    builder.setInsertPoint(b);
    builder.ret(Builder::I(1));
    builder.setInsertPoint(c);
    builder.ret(Builder::I(2));

    EXPECT_EQ(fn.block(a).successors(), (std::vector<BlockId>{b, c}));
    EXPECT_EQ(fn.predsOf(b), (std::vector<BlockId>{a}));
    EXPECT_FALSE(fn.isMergePoint(b));
}

TEST(Function, MergePointDetection)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId c = fn.createBlock();
    const BlockId join = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.condBr(CmpKind::LT, Builder::I(0), Builder::I(1), b, c);
    builder.setInsertPoint(b);
    builder.bru(join);
    builder.setInsertPoint(c);
    builder.bru(join);
    builder.setInsertPoint(join);
    builder.ret(Builder::I(0));
    EXPECT_TRUE(fn.isMergePoint(join));
    EXPECT_FALSE(fn.isMergePoint(b));
}

TEST(Function, RetargetEdgeUpdatesPreds)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId c = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.bru(b);
    builder.setInsertPoint(b);
    builder.ret(Builder::I(0));
    builder.setInsertPoint(c);
    builder.ret(Builder::I(0));

    fn.retargetEdge(a, b, c);
    EXPECT_EQ(fn.predsOf(c), (std::vector<BlockId>{a}));
    EXPECT_TRUE(fn.predsOf(b).empty());
}

TEST(Function, CloneBlockSharesDupGroup)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.movi(3);
    builder.ret(Builder::I(0));

    const BlockId copy = fn.cloneBlock(a);
    EXPECT_EQ(fn.block(copy).originalId(), a);
    EXPECT_EQ(fn.block(copy).ops().size(), fn.block(a).ops().size());
    EXPECT_NE(fn.block(copy).ops()[0].dupGroup, 0u);
    EXPECT_EQ(fn.block(copy).ops()[0].dupGroup,
              fn.block(a).ops()[0].dupGroup);
    // Fresh op ids on the clone.
    EXPECT_NE(fn.block(copy).ops()[0].id, fn.block(a).ops()[0].id);
}

TEST(Function, CloneFunctionDeepCopies)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    const Reg r = builder.movi(3);
    builder.ret(Builder::R(r));

    Function copy = fn.clone();
    copy.block(a).setWeight(123.0);
    EXPECT_EQ(fn.block(a).weight(), 0.0);
    EXPECT_EQ(copy.entry(), fn.entry());
    EXPECT_EQ(copy.totalOps(), fn.totalOps());
}

TEST(Function, RemoveUnreachableBlocks)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    const BlockId dead1 = fn.createBlock();
    const BlockId dead2 = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.bru(b);
    builder.setInsertPoint(b);
    builder.ret(Builder::I(0));
    builder.setInsertPoint(dead1);
    builder.bru(dead2);
    builder.setInsertPoint(dead2);
    builder.bru(dead1);

    const auto removed = fn.removeUnreachableBlocks();
    EXPECT_EQ(removed.size(), 2u);
    EXPECT_FALSE(fn.hasBlock(dead1));
    EXPECT_FALSE(fn.hasBlock(dead2));
    EXPECT_TRUE(fn.hasBlock(a));
}

TEST(Verifier, AcceptsWellFormed)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    const Reg x = builder.movi(1);
    builder.ret(Builder::R(x));
    EXPECT_TRUE(verifyFunction(fn, VerifyLevel::Schedulable).empty());
}

TEST(Verifier, RejectsMissingTerminator)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    fn.appendOp(a, makeMovi(gpr(0), 1));
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("no terminator"), std::string::npos);
}

TEST(Verifier, RejectsBranchToDeadBlock)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId b = fn.createBlock();
    fn.setEntry(a);
    Builder builder(fn);
    builder.setInsertPoint(a);
    builder.bru(b);
    fn.appendTerminator(b, makeRet(Operand::makeImm(0)));
    // Manually break the CFG.
    fn.block(a).terminator().targets[0] = 77;
    fn.invalidatePreds();
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    ASSERT_FALSE(problems.empty());
}

TEST(Verifier, RejectsGuardInSequentialIR)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    fn.setEntry(a);
    Op movi = makeMovi(gpr(0), 1);
    movi.guard = pred(0);
    fn.reserveRegs(1, 1, 0);
    fn.appendOp(a, std::move(movi));
    fn.appendTerminator(a, makeRet(Operand::makeImm(0)));
    const auto structural = verifyFunction(fn, VerifyLevel::Structural);
    EXPECT_TRUE(structural.empty());
    const auto sched = verifyFunction(fn, VerifyLevel::Schedulable);
    ASSERT_FALSE(sched.empty());
}

TEST(Verifier, RejectsUnreachableBlock)
{
    Function fn("f");
    const BlockId a = fn.createBlock();
    const BlockId dead = fn.createBlock();
    fn.setEntry(a);
    fn.appendTerminator(a, makeRet(Operand::makeImm(0)));
    fn.appendTerminator(dead, makeRet(Operand::makeImm(0)));
    const auto problems = verifyFunction(fn, VerifyLevel::Structural);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("unreachable"), std::string::npos);
}

TEST(Module, FunctionsByName)
{
    Module mod("m");
    mod.createFunction("a");
    mod.createFunction("b");
    EXPECT_TRUE(mod.hasFunction("a"));
    EXPECT_FALSE(mod.hasFunction("c"));
    EXPECT_EQ(mod.function("b").name(), "b");
}

// ---------------------------------------------------------------
// Every verifier message, pinned with the full problem list
// ---------------------------------------------------------------

/** A function under test plus the module that owns it. */
struct VerifierInput
{
    std::unique_ptr<Module> mod;
    Function *fn = nullptr;
};

/** Parse one function body (blocks only) under a generous header. */
VerifierInput
fromText(const std::string &blocks)
{
    VerifierInput in;
    std::string error;
    in.mod = parseModule("module m mem=1024\n"
                         "func @f entry=bb0 gprs=8 preds=4 {\n" +
                             blocks + "}\n",
                         &error);
    EXPECT_TRUE(in.mod) << error;
    if (in.mod)
        in.fn = in.mod->functions().front().get();
    return in;
}

/** bb0: MOVI r0, then RET r0 — a starting point for manual edits. */
VerifierInput
straightLine()
{
    return fromText("  block bb0 weight=1 {\n    r0 = MOVI 1\n"
                    "    RET r0\n  }\n");
}

/** One function and the exact problems it must produce. */
struct VerifierCase
{
    const char *name;
    VerifierInput (*build)();
    VerifyLevel level;
    std::vector<std::string> problems;
};

const VerifierCase kVerifierCases[] = {
    {"MissingEntryBlock",
     [] {
         VerifierInput in;
         in.mod = std::make_unique<Module>("m");
         in.fn = &in.mod->createFunction("f");
         in.fn->createBlock();
         return in;
     },
     VerifyLevel::Structural, {"missing entry block"}},
    {"NoTerminator",
     [] {
         return fromText("  block bb0 weight=1 {\n    r0 = MOVI 1\n"
                         "  }\n");
     },
     VerifyLevel::Structural, {"bb0: no terminator"}},
    {"BranchNotLast",
     [] {
         VerifierInput in = straightLine();
         BasicBlock &b = in.fn->block(0);
         Op ret = makeRet(Operand::makeImm(0));
         ret.id = in.fn->freshOpId();
         ret.home = 0;
         b.ops().insert(b.ops().begin(), ret);
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op2 (RET 0): branch op must be the terminator"}},
    {"HomeMismatch",
     [] {
         VerifierInput in = straightLine();
         in.fn->block(0).ops()[0].home = 5;
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = MOVI 1): op.home does not match its block"}},
    {"DuplicateOpId",
     [] {
         VerifierInput in = straightLine();
         in.fn->block(0).ops()[1].id = 0;
         return in;
     },
     VerifyLevel::Structural, {"bb0 op0 (RET r0): duplicate op id"}},
    {"FallthruTarget",
     [] {
         return fromText("  block bb0 weight=1 {\n    BRU fallthru\n"
                         "  }\n");
     },
     VerifyLevel::Structural,
     {"bb0: fallthru target outside a region schedule"}},
    {"BranchToDeadBlock",
     [] {
         VerifierInput in = fromText("  block bb0 weight=1 {\n"
                                     "    BRU bb1\n  }\n"
                                     "  block bb1 weight=1 {\n"
                                     "    RET 0\n  }\n");
         in.fn->block(0).terminator().targets[0] = 77;
         in.fn->invalidatePreds();
         return in;
     },
     VerifyLevel::Structural,
     {"bb0: branch to dead block bb77", "bb1 unreachable from entry"}},
    {"EdgeWeightCount",
     [] {
         return fromText("  block bb0 weight=1 edges=[1,2] {\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0: edge weight count 2 != target count 0"}},
    {"CmppWithoutDestination",
     [] {
         return fromText("  block bb0 weight=1 {\n    CMPP.LT r0, 1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (CMPP.LT r0, 1): CMPP needs 1 or 2 destinations"}},
    {"CmppGprDestination",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    r1 = CMPP.EQ r0, 1\n    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r1 = CMPP.EQ r0, 1): CMPP destination must be predicate"}},
    {"PsetGprDestination",
     [] {
         return fromText("  block bb0 weight=1 {\n    r1 = PSET\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r1 = PSET): predicate-define needs one predicate "
      "destination"}},
    {"WrongDestinationCount",
     [] {
         return fromText("  block bb0 weight=1 {\n    MOVI 1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (MOVI 1): wrong destination count"}},
    {"PbrGprDestination",
     [] {
         return fromText("  block bb0 weight=1 {\n    r1 = PBR bb0\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r1 = PBR bb0): PBR destination must be a BTR"}},
    {"PredicateDestinationOnAlu",
     [] {
         return fromText("  block bb0 weight=1 {\n    p0 = MOVI 1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (p0 = MOVI 1): destination must be a GPR"}},
    {"WrongSourceCount",
     [] {
         return fromText("  block bb0 weight=1 {\n    r0 = ADD r1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = ADD r1): wrong source count"}},
    {"MoviFromRegister",
     [] {
         return fromText("  block bb0 weight=1 {\n    r0 = MOVI r1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = MOVI r1): MOVI source must be immediate"}},
    {"PredicateMemoryBase",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    r0 = LD [p0 + 1]\n    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = LD [p0 + 1]): memory base must be a GPR"}},
    {"RegisterMemoryOffset",
     [] {
         VerifierInput in = fromText("  block bb0 weight=1 {\n"
                                     "    r0 = LD [r1 + 1]\n"
                                     "    RET 0\n  }\n");
         in.fn->block(0).ops()[0].srcs[1] = Operand::makeReg(gpr(2));
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = LD [r1 + 0]): memory offset must be immediate"}},
    {"GprBranchCondition",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    BRCT r0, bb1, bb1\n  }\n"
                         "  block bb1 weight=1 {\n    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (BRCT r0, bb1, bb1): branch condition must be a "
      "predicate"}},
    {"GprGuard",
     [] {
         VerifierInput in = straightLine();
         in.fn->block(0).ops()[0].guard = gpr(3);
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = MOVI 1 ? r3): guard must be a predicate register"}},
    {"BruWithTwoTargets",
     [] {
         return fromText("  block bb0 weight=1 {\n    BRU bb1, bb1\n"
                         "  }\n  block bb1 weight=1 {\n    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (BRU bb1, bb1): BRU needs exactly one target"}},
    {"BrctWithoutTargets",
     [] {
         return fromText("  block bb0 weight=1 {\n    BRCT p0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (BRCT p0): BRCT/BRCF need 1 or 2 targets"}},
    {"MwbrWithoutTargets",
     [] {
         return fromText("  block bb0 weight=1 {\n    MWBR r0 []\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (MWBR r0 []): MWBR needs targets"}},
    {"MwbrCaseCountMismatch",
     [] {
         VerifierInput in = fromText("  block bb0 weight=1 {\n"
                                     "    MWBR r0 [0:bb1]\n  }\n"
                                     "  block bb1 weight=1 {\n"
                                     "    RET 0\n  }\n");
         in.fn->block(0).terminator().caseValues.push_back(1);
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op0 (MWBR r0 [0:bb1]): MWBR case/target count mismatch"}},
    {"RetWithTarget",
     [] {
         return fromText("  block bb0 weight=1 {\n    RET 0, bb0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (RET 0, bb0): RET takes no targets"}},
    {"PbrWithoutTarget",
     [] {
         VerifierInput in = straightLine();
         in.fn->reserveRegs(0, 0, 1);
         Op pbr = makePbr(btr(0), 0);
         pbr.targets.clear();
         in.fn->block(0).ops()[0] = pbr;
         in.fn->block(0).ops()[0].home = 0;
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op0 (b0 = PBR): PBR needs exactly one target"}},
    {"AluWithTarget",
     [] {
         return fromText("  block bb0 weight=1 {\n    r0 = MOVI 1, bb0\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = MOVI 1, bb0): non-branch op with targets"}},
    {"UnreachableBlock",
     [] {
         return fromText("  block bb0 weight=1 {\n    RET 0\n  }\n"
                         "  block bb1 weight=1 {\n    RET 1\n  }\n");
     },
     VerifyLevel::Structural, {"bb1 unreachable from entry"}},
    {"GuardInSequentialIr",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    r0 = MOVI 1 ? p0\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0 op0: guards are a scheduler output, not an input",
      "bb0 op0: predicate used by a non-branch op"}},
    {"SchedulerOutputOpcode",
     [] {
         return fromText("  block bb0 weight=1 {\n    p0 = PSET\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable, {"bb0 op0: PSET is a scheduler output"}},
    {"TwoDestinationCmpp",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    p0, p1 = CMPP.LT r0, 1\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0 op0: sequential CMPP must have one destination"}},
    {"PredicateUsedByAlu",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    r0 = ADD p0, 1\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0 op0: predicate used by a non-branch op"}},
    {"ConditionalBranchWithoutFall",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    p0 = CMPP.LT r0, 1\n    BRCT p0, bb1\n  }\n"
                         "  block bb1 weight=1 {\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0: sequential conditional branch needs taken and fall "
      "targets"}},
    {"ConditionNotDefinedInBlock",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    BRCF p2, bb1, bb1\n  }\n"
                         "  block bb1 weight=1 {\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0: branch condition p2 not defined by a CMPP in the same "
      "block"}},
    {"SparseMwbrCases",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    MWBR r0 [1:bb1, 0:bb1]\n  }\n"
                         "  block bb1 weight=1 {\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0: sequential MWBR cases must be dense 0..n-1",
      "bb0: sequential MWBR cases must be dense 0..n-1"}},

    // Register ranges: the simulators size their register files from
    // the declared counts, so an op past them must not reach them.
    {"GprOutOfRange",
     [] {
         return fromText("  block bb0 weight=1 {\n    r8 = ADD r9, r1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r8 = ADD r9, r1): register r8 out of range (8 declared)"}},
    {"PredicateGuardOutOfRange",
     [] {
         return fromText("  block bb0 weight=1 {\n"
                         "    r0 = MOVI 1 ? p4\n    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = MOVI 1 ? p4): register p4 out of range "
      "(4 declared)"}},
    {"BtrOutOfRange",
     [] {
         return fromText("  block bb0 weight=1 {\n    b0 = PBR bb0\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Structural,
     {"bb0 op0 (b0 = PBR bb0): register b0 out of range (0 declared)"}},
    {"RangeProblemsFollowTheOthers",
     [] {
         return fromText("  block bb0 weight=1 {\n    r9 = MOVI r1\n"
                         "    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0 op0 (r9 = MOVI r1): MOVI source must be immediate",
      "bb0 op0 (r9 = MOVI r1): register r9 out of range (8 declared)"}},

    // Schedulable checks on blocks the structural pass already
    // rejected: reported once, never a crash.
    {"UnterminatedBlockAtSchedulableLevel",
     [] {
         return fromText("  block bb0 weight=1 {\n    r0 = MOVI 1\n"
                         "  }\n");
     },
     VerifyLevel::Schedulable, {"bb0: no terminator"}},
    {"ConditionalBranchWithoutCondition",
     [] {
         return fromText("  block bb0 weight=1 {\n    BRCT bb1, bb1\n"
                         "  }\n  block bb1 weight=1 {\n    RET 0\n  }\n");
     },
     VerifyLevel::Schedulable,
     {"bb0 op0 (BRCT bb1, bb1): wrong source count"}},
    {"ShortLoadPrintsAsAList",
     [] {
         VerifierInput in = straightLine();
         Op &op = in.fn->block(0).ops()[0];
         op.opcode = Opcode::LD;
         return in;
     },
     VerifyLevel::Structural,
     {"bb0 op0 (r0 = LD 1): wrong source count"}},
};

class VerifierMessage : public ::testing::TestWithParam<VerifierCase>
{
};

TEST_P(VerifierMessage, ExactProblems)
{
    const VerifierCase &c = GetParam();
    VerifierInput in = c.build();
    ASSERT_NE(in.fn, nullptr);
    EXPECT_EQ(verifyFunction(*in.fn, c.level), c.problems);
}

INSTANTIATE_TEST_SUITE_P(
    Verifier, VerifierMessage, ::testing::ValuesIn(kVerifierCases),
    [](const ::testing::TestParamInfo<VerifierCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace treegion::ir
