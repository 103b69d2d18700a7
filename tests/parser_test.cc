/**
 * @file
 * Textual IR printer/parser tests: whole-module round trips of
 * generated programs, every parser error message, the printer's
 * number formatting against printf, and seeded byte mutations of
 * real inputs.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/rng.h"
#include "support/string_utils.h"
#include "workloads/spec_proxy.h"

namespace treegion::ir {
namespace {

TEST(Parser, MinimalModule)
{
    const char *text = R"(
module tiny mem=128
func @main entry=bb0 gprs=2 preds=1 {
  block bb0 weight=1 {
    r0 = MOVI 5
    r1 = ADD r0, 2
    RET r1
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->name(), "tiny");
    EXPECT_EQ(mod->memWords(), 128u);
    Function &fn = mod->function("main");
    EXPECT_EQ(fn.entry(), 0u);
    EXPECT_EQ(fn.block(0).ops().size(), 3u);
    EXPECT_TRUE(verifyFunction(fn, VerifyLevel::Schedulable).empty());
}

TEST(Parser, BranchesAndWeights)
{
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=4 preds=2 {
  block bb0 weight=10 edges=[7,3] {
    r0 = MOVI 0
    r1 = LD [r0 + 3]
    p0 = CMPP.LT r1, 50
    BRCT p0, bb1, bb2
  }
  block bb1 weight=7 {
    RET r1
  }
  block bb2 weight=3 {
    RET 0
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    Function &fn = mod->function("main");
    EXPECT_DOUBLE_EQ(fn.block(0).weight(), 10.0);
    ASSERT_EQ(fn.block(0).edgeWeights().size(), 2u);
    EXPECT_DOUBLE_EQ(fn.block(0).edgeWeights()[0], 7.0);
    EXPECT_EQ(fn.block(0).terminator().opcode, Opcode::BRCT);
}

TEST(Parser, Mwbr)
{
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI 1
    MWBR r0 [0:bb1, 1:bb2]
  }
  block bb1 weight=0 {
    RET 1
  }
  block bb2 weight=0 {
    RET 2
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    const Op &term = mod->function("main").block(0).terminator();
    EXPECT_EQ(term.opcode, Opcode::MWBR);
    EXPECT_EQ(term.targets, (std::vector<BlockId>{1, 2}));
    EXPECT_EQ(term.caseValues, (std::vector<int64_t>{0, 1}));
}

TEST(Parser, ReportsErrors)
{
    std::string error;
    EXPECT_EQ(parseModule("nonsense", &error), nullptr);
    EXPECT_FALSE(error.empty());

    EXPECT_EQ(parseModule("module m mem=64\nfunc @f entry=bb0 {\n"
                          "  block bb0 weight=0 {\n    FROB r1\n  }\n}\n",
                          &error),
              nullptr);
    EXPECT_NE(error.find("unknown opcode"), std::string::npos);
}

TEST(Parser, RejectsBranchToUndefinedBlock)
{
    std::string error;
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=1 preds=0 {
  block bb0 weight=0 {
    BRU bb7
  }
}
)";
    EXPECT_EQ(parseModule(text, &error), nullptr);
    EXPECT_NE(error.find("undefined block"), std::string::npos);
}

TEST(Parser, NegativeImmediates)
{
    const char *text = R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI -42
    r1 = ADD r0, -1
    RET r1
  }
}
)";
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    EXPECT_EQ(mod->function("main").block(0).ops()[0].srcs[0].imm, -42);
}

/** Parse @p text, print, reparse, print; both prints must match. */
void
expectRoundTripFixedPoint(const char *text)
{
    std::string error;
    auto mod = parseModule(text, &error);
    ASSERT_NE(mod, nullptr) << error;
    const std::string once = moduleToString(*mod);
    auto reparsed = parseModule(once, &error);
    ASSERT_NE(reparsed, nullptr) << error;
    EXPECT_EQ(once, moduleToString(*reparsed));
}

// Edge inputs exercised by the differential fuzzer's round-trip
// oracle. None of these ever failed (the fuzz campaigns found no
// printer/parser mismatch); they are pinned so that stays true.
TEST(Parser, RoundTripExtremeImmediates)
{
    expectRoundTripFixedPoint(R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI -9223372036854775808
    r1 = ADD r0, -9223372036854775807
    RET r1
  }
}
)");
}

TEST(Parser, RoundTripNegativeMemoryOffsets)
{
    expectRoundTripFixedPoint(R"(
module m mem=64
func @main entry=bb0 gprs=3 preds=0 {
  block bb0 weight=0 {
    r0 = MOVI 32
    r1 = LD [r0 + -4]
    ST [r0 + -8], r1
    RET r1
  }
}
)");
}

TEST(Parser, RoundTripFractionalWeights)
{
    // %.6g printing must be a fixed point even for weights that are
    // not exactly representable or exceed six significant digits.
    expectRoundTripFixedPoint(R"(
module m mem=64
func @main entry=bb0 gprs=2 preds=1 {
  block bb0 weight=0.30000000000000004 edges=[0.1,0.2] {
    p0 = CMPP.LT r0, 5
    BRCT p0 bb1, bb2
  }
  block bb1 weight=1234567.25 {
    BRU bb2
  }
  block bb2 weight=1e9 {
    r1 = MOVI 0
    RET r1
  }
}
)");
}

TEST(Parser, AcceptsCrlfTabsAndComments)
{
    // Repro files carry "# " header lines, and foreign editors
    // introduce CRLF endings and tab indentation; none of it may
    // change the parse.
    const char *base = R"(
# treegion-fuzz repro
module m mem=64
# comment between declarations
func @main entry=bb0 gprs=2 preds=0 {
  block bb0 weight=0 {
    # comment inside a block
    r0 = MOVI 7
    r1 = ADD r0, 1
    RET r1
  }
}
)";
    std::string error;
    auto plain = parseModule(base, &error);
    ASSERT_NE(plain, nullptr) << error;

    std::string mangled;
    for (const char *p = base; *p; ++p) {
        if (*p == '\n')
            mangled += '\r';
        mangled += *p;
    }
    size_t pos;
    while ((pos = mangled.find("  ")) != std::string::npos)
        mangled.replace(pos, 2, "\t");
    auto parsed = parseModule(mangled, &error);
    ASSERT_NE(parsed, nullptr) << error;
    EXPECT_EQ(moduleToString(*plain), moduleToString(*parsed));
}

TEST(Parser, RoundTripGeneratedProxies)
{
    // Print-then-parse every SPECint95 proxy and check the round trip
    // is a fixpoint (second print equals the first).
    for (const auto &spec : workloads::specint95Proxies()) {
        auto mod = workloads::buildProxy(spec);
        const std::string once = moduleToString(*mod);
        std::string error;
        auto reparsed = parseModule(once, &error);
        ASSERT_NE(reparsed, nullptr) << spec.name << ": " << error;
        const std::string twice = moduleToString(*reparsed);
        EXPECT_EQ(once, twice) << spec.name;
        ir::Function &fn = reparsed->function("main");
        EXPECT_TRUE(
            verifyFunction(fn, VerifyLevel::Schedulable).empty())
            << spec.name;
    }
}

// ---------------------------------------------------------------
// Every parser error, pinned with its message and line number
// ---------------------------------------------------------------

/** One malformed input and the exact error it must produce. */
struct ParseErrorCase
{
    const char *name;
    const char *text;
    const char *error;
};

/** Module header, function header and block header on lines 1-3. */
#define TG_HEAD                                                        \
    "module m mem=1024\n"                                              \
    "func @f entry=bb0 gprs=8 preds=4 {\n"                             \
    "  block bb0 weight=1 {\n"

const ParseErrorCase kParseErrors[] = {
    {"NoModuleHeader", "\n\nnonsense\n",
     "line 3: expected 'module <name> mem=<words>'"},
    {"EmptyText", "", "line 1: expected 'module <name> mem=<words>'"},
    {"ModuleHeaderWithoutMem", "module m\n",
     "line 1: malformed module header"},
    {"ModuleHeaderWithExtraField", "module m mem=64 x\n",
     "line 1: malformed module header"},
    {"ModuleHeaderWithoutMemKey", "module m 64\n",
     "line 1: malformed module header"},
    {"NotAFunction", "module m mem=64\n  block bb0 weight=1 {\n",
     "line 2: expected 'func @...'"},
    {"FuncHeaderWithoutBrace", "module m mem=64\nfunc @f entry=bb0\n",
     "line 2: malformed func header"},
    {"FuncHeaderTooShort", "module m mem=64\nfunc @f\n",
     "line 2: malformed func header"},
    {"FuncWithoutName", "module m mem=64\nfunc @ entry=bb0 {\n",
     "line 2: missing function name"},
    {"UnknownFuncAttribute",
     "module m mem=64\nfunc @f entry=bb0 color=red {\n",
     "line 2: unknown func attribute: color=red"},
    {"OpOutsideBlock",
     "module m mem=64\nfunc @f entry=bb0 {\n  r0 = MOVI 1\n",
     "line 3: expected 'block bb<N> ... {'"},
    {"BranchToUndefinedBlock",
     TG_HEAD "    BRU bb9\n  }\n  block bb1 weight=1 {\n"
             "    BRU bb7\n  }\n}\n",
     "line 9: branch to undefined block bb7"},
    {"BranchToUndefinedBlockAtEof", TG_HEAD "    BRU bb3\n",
     "line 5: branch to undefined block bb3"},
    {"MissingEntryAttribute",
     "module m mem=64\nfunc @f gprs=1 {\n  block bb0 weight=1 {\n"
     "    RET 0\n  }\n}\n",
     "line 6: function entry block missing"},
    {"EntryNamesUndefinedBlock",
     "module m mem=64\nfunc @f entry=bb4 {\n  block bb0 weight=1 {\n"
     "    RET 0\n  }\n}\n",
     "line 6: function entry block missing"},
    {"BlockHeaderWithoutBrace",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb0 weight=1\n",
     "line 3: malformed block header"},
    {"BlockDefinedTwice",
     TG_HEAD "    RET 0\n  }\n  block bb0 weight=1 {\n",
     "line 6: block bb0 defined twice"},
    {"UnknownBlockAttribute",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb0 hot=1 {\n",
     "line 3: unknown block attribute: hot=1"},
    {"MultipleTerminators", TG_HEAD "    RET 0\n    RET 1\n",
     "line 5: multiple terminators in block"},
    {"OpAfterTerminator", TG_HEAD "    RET 0\n    r0 = MOVI 1\n",
     "line 5: op after terminator"},
    {"BadDestinationRegister", TG_HEAD "    r0, x1 = MOVI 1\n",
     "line 4: bad destination register:  x1"},
    {"EmptyOp", TG_HEAD "    r0 = ,\n", "line 4: empty op"},
    {"BadCompareKind", TG_HEAD "    p0 = CMPP.XX r0, 1\n",
     "line 4: bad compare kind in CMPP.XX"},
    {"UnknownOpcode", TG_HEAD "    FROB r1\n",
     "line 4: unknown opcode: FROB"},
    {"GuardNotAPredicate", TG_HEAD "    r0 = MOVI 1 ? r1\n",
     "line 4: bad guard predicate"},
    {"MemoryOpWithoutOpenBracket", TG_HEAD "    r0 = LD r1 + 4]\n",
     "line 4: expected '[' in memory op"},
    {"MemoryOpBadBase", TG_HEAD "    r0 = LD [x + 4]\n",
     "line 4: bad base register"},
    {"MemoryOpWithoutPlus", TG_HEAD "    r0 = LD [r1 4]\n",
     "line 4: expected '+' in memory op"},
    {"MemoryOpBadOffset", TG_HEAD "    r0 = LD [r1 + x]\n",
     "line 4: bad memory offset"},
    {"MemoryOpWithoutCloseBracket", TG_HEAD "    r0 = LD [r1 + 4\n",
     "line 4: expected ']' in memory op"},
    {"StoreWithoutValue", TG_HEAD "    ST [r1 + 4]\n",
     "line 4: missing store value"},
    {"StoreBadValue", TG_HEAD "    ST [r1 + 4], x\n",
     "line 4: bad store value"},
    {"MwbrBadSelector", TG_HEAD "    MWBR x [0:bb0]\n",
     "line 4: bad MWBR selector"},
    {"MwbrWithoutOpenBracket", TG_HEAD "    MWBR r0 0:bb0\n",
     "line 4: expected '[' in MWBR"},
    {"MwbrBadCaseValue", TG_HEAD "    MWBR r0 [x:bb0]\n",
     "line 4: bad MWBR case value"},
    {"MwbrWithoutColon", TG_HEAD "    MWBR r0 [0 bb0]\n",
     "line 4: expected ':' in MWBR case"},
    {"MwbrBadCaseTarget", TG_HEAD "    MWBR r0 [0:x]\n",
     "line 4: bad MWBR case target"},
    {"MwbrWithoutCloseBracket", TG_HEAD "    MWBR r0 [0:bb0\n",
     "line 4: expected ']' in MWBR"},
    {"BadOperand", TG_HEAD "    r0 = ADD r1, x\n",
     "line 4: bad operand: x"},
    {"BareBbIsNotAnOperand", TG_HEAD "    BRU bb\n",
     "line 4: bad operand: bb"},
    {"TrailingTokens", TG_HEAD "    r0 = LD [r1 + 4] r2\n",
     "line 4: trailing tokens in op"},

    // Hostile and malformed numbers: each was accepted (as 0, a
    // truncation or a wrapped value) or aborted the process before.
    {"BlockIdWithoutDigits",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb weight=1 {\n",
     "line 3: bad block id: bb"},
    {"BlockIdWithTrailingJunk",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb0x weight=1 {\n",
     "line 3: bad block id: bb0x"},
    {"NegativeBlockId",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb-38 weight=1 {\n",
     "line 3: bad block id: bb-38"},
    {"BlockIdAboveLimit",
     "module m mem=64\nfunc @f entry=bb0 {\n"
     "  block bb65536 weight=1 {\n",
     "line 3: block id bb65536 above the limit bb65535"},
    {"MalformedWeight",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb0 weight=zz {\n",
     "line 3: bad weight= value: weight=zz"},
    {"WeightWithTrailingJunk",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb0 weight=1x {\n",
     "line 3: bad weight= value: weight=1x"},
    {"WeightOutOfRange",
     "module m mem=64\nfunc @f entry=bb0 {\n"
     "  block bb0 weight=1e999 {\n",
     "line 3: bad weight= value: weight=1e999"},
    {"MalformedEdgeWeight",
     "module m mem=64\nfunc @f entry=bb0 {\n"
     "  block bb0 weight=1 edges=[1,x] {\n",
     "line 3: bad edges= value: edges=[1,x]"},
    {"MalformedMem", "module m mem=64k\n",
     "line 1: bad mem= value: mem=64k"},
    {"EmptyMem", "module m mem=\n", "line 1: bad mem= value: mem="},
    {"MemAboveLimit", "module m mem=16777217\n",
     "line 1: bad mem= value: mem=16777217"},
    {"MalformedEntry", "module m mem=64\nfunc @f entry=bbx {\n",
     "line 2: bad entry= value: entry=bbx"},
    {"NegativeGprs", "module m mem=64\nfunc @f gprs=-1 {\n",
     "line 2: bad gprs= value: gprs=-1"},
    {"GprsAboveLimit", "module m mem=64\nfunc @f gprs=65537 {\n",
     "line 2: bad gprs= value: gprs=65537"},
    {"MalformedPreds", "module m mem=64\nfunc @f preds=2p {\n",
     "line 2: bad preds= value: preds=2p"},
    {"DuplicateFunction",
     "module m mem=64\nfunc @f entry=bb0 {\n  block bb0 weight=1 {\n"
     "    RET 0\n  }\n}\nfunc @f entry=bb0 {\n",
     "line 7: duplicate function @f"},
    {"RegisterIndexOverflow", TG_HEAD "    r0 = ADD r4294967296, 1\n",
     "line 4: bad operand: r4294967296"},
    {"ImmediateOverflow", TG_HEAD "    r0 = MOVI 9223372036854775808\n",
     "line 4: bad operand: 9223372036854775808"},
    {"TargetIsTheNoBlockSentinel", TG_HEAD "    BRU bb4294967295\n",
     "line 4: bad operand: bb4294967295"},
    {"FarBranchTarget", TG_HEAD "    BRU bb4294967294\n  }\n}\n",
     "line 6: branch to undefined block bb4294967294"},
};

#undef TG_HEAD

class ParseError : public ::testing::TestWithParam<ParseErrorCase>
{
};

TEST_P(ParseError, MessageAndLine)
{
    const ParseErrorCase &c = GetParam();
    std::string error;
    EXPECT_EQ(parseModule(c.text, &error), nullptr);
    EXPECT_EQ(error, c.error);
}

INSTANTIATE_TEST_SUITE_P(
    Parser, ParseError, ::testing::ValuesIn(kParseErrors),
    [](const ::testing::TestParamInfo<ParseErrorCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------
// Number formatting: the printer's to_chars paths against printf
// ---------------------------------------------------------------

std::string
printfG6(double value)
{
    return support::strprintf("%.6g", value);
}

std::string
appendedG6(double value)
{
    std::string out;
    support::appendG6(out, value);
    return out;
}

TEST(Printer, WeightsMatchPrintfG6OnEdgeValues)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double values[] = {0.0,
                             -0.0,
                             1e-5,
                             1e-4,
                             0.1,
                             0.30000000000000004,
                             1.0,
                             123456.0,
                             123456.5,
                             999999.5,
                             1234567.25,
                             1e16,
                             1e21,
                             std::numeric_limits<double>::denorm_min(),
                             2.5e-310,
                             DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             inf,
                             -inf,
                             nan,
                             -nan};
    for (const double v : values)
        EXPECT_EQ(appendedG6(v), printfG6(v)) << std::hexfloat << v;
}

TEST(Printer, WeightsMatchPrintfG6OnRandomDoubles)
{
    support::Rng rng(20260417);
    for (int i = 0; i < 100000; ++i) {
        double v;
        if (i % 2) {
            // Any bit pattern: denormals, infinities, NaN payloads.
            const uint64_t bits = rng.next();
            std::memcpy(&v, &bits, sizeof(v));
        } else {
            // Profile-like magnitudes, where rounding ties live.
            v = std::ldexp(rng.nextDouble(),
                           static_cast<int>(rng.nextRange(-40, 40)));
        }
        ASSERT_EQ(appendedG6(v), printfG6(v)) << std::hexfloat << v;
    }
}

TEST(Printer, IntegersAtTheirLimits)
{
    EXPECT_EQ(makeMovi(gpr(UINT32_MAX), INT64_MIN).str(),
              "r4294967295 = MOVI -9223372036854775808");
    EXPECT_EQ(makeMovi(pred(0), INT64_MAX).str(),
              "p0 = MOVI 9223372036854775807");
    EXPECT_EQ(makeLoad(btr(UINT32_MAX), gpr(1), INT64_MIN).str(),
              "b4294967295 = LD [r1 + -9223372036854775808]");
    EXPECT_EQ(makeBrct(pred(UINT32_MAX), kNoBlock - 1, kNoBlock).str(),
              "BRCT p4294967295, bb4294967294, fallthru");

    Module mod("m");
    mod.setMemWords(std::numeric_limits<size_t>::max());
    Function &fn = mod.createFunction("f");
    fn.reserveRegs(UINT32_MAX, UINT32_MAX, 0);
    const std::string text = moduleToString(mod);
    EXPECT_EQ(text.substr(0, text.find('\n')),
              "module m mem=18446744073709551615");
    EXPECT_NE(text.find(" gprs=4294967295 preds=4294967295 {"),
              std::string::npos);
}

TEST(Printer, OstreamAndStringFormsAgree)
{
    auto mod = workloads::buildProxy(workloads::specint95Proxies()[0]);
    std::ostringstream module_os;
    printModule(module_os, *mod);
    EXPECT_EQ(module_os.str(), moduleToString(*mod));

    std::ostringstream fn_os;
    printFunction(fn_os, *mod->functions().front());
    std::string appended;
    appendFunction(appended, *mod->functions().front());
    EXPECT_EQ(fn_os.str(), appended);
    EXPECT_NE(module_os.str().find(appended), std::string::npos);
}

// ---------------------------------------------------------------
// Seeded byte mutations of real inputs
// ---------------------------------------------------------------

/** The example and golden-corpus modules, as text. */
std::vector<std::string>
seedTexts()
{
    std::vector<std::string> texts;
    for (const char *dir :
         {TREEGION_EXAMPLES_DIR, TREEGION_GOLDEN_DIR "/inputs"}) {
        for (const auto &entry : std::filesystem::directory_iterator(dir)) {
            if (entry.path().extension() != ".tir")
                continue;
            std::ifstream in(entry.path());
            std::stringstream buffer;
            buffer << in.rdbuf();
            texts.push_back(buffer.str());
        }
    }
    return texts;
}

/** [begin, end) of the line holding byte @p at (end past its '\n'). */
std::pair<size_t, size_t>
lineAround(const std::string &text, size_t at)
{
    const size_t nl =
        at == 0 ? std::string::npos : text.rfind('\n', at - 1);
    const size_t begin = nl == std::string::npos ? 0 : nl + 1;
    const size_t end = std::min(text.find('\n', at), text.size() - 1) + 1;
    return {begin, end};
}

/** One random edit: flip, delete, insert, truncate, duplicate a line. */
void
mutate(std::string &text, support::Rng &rng)
{
    if (text.empty())
        return;
    const size_t at = rng.nextBelow(text.size());
    switch (rng.nextBelow(6)) {
      case 0:
        text[at] = static_cast<char>(rng.nextBelow(256));
        break;
      case 1:
        text.erase(at, 1 + rng.nextBelow(8));
        break;
      case 2: {
        // Bytes the grammar gives meaning to, so edits land on
        // numbers, separators and structure rather than only noise.
        static const std::string kAlphabet =
            "0123456789 ,[]+?:=-.\n\t#{}rpbx@e";
        const size_t n = 1 + rng.nextBelow(4);
        for (size_t i = 0; i < n; ++i)
            text.insert(text.begin() + static_cast<long>(at),
                        kAlphabet[rng.nextBelow(kAlphabet.size())]);
        break;
      }
      case 3:
        text.resize(at);
        break;
      case 4: {
        const auto [begin, end] = lineAround(text, at);
        text.insert(begin, text.substr(begin, end - begin));
        break;
      }
      default: {
        const auto [begin, end] = lineAround(text, at);
        text.erase(begin, end - begin);
        break;
      }
    }
}

TEST(ParserRobustness, SeededMutationsNeverCrashAndRoundTrip)
{
    const std::vector<std::string> seeds = seedTexts();
    ASSERT_GE(seeds.size(), 2u);
    support::Rng rng(0x5eed7e11);
    size_t cases = 0;
    size_t accepted = 0;
    for (const std::string &seed : seeds) {
        for (int m = 0; m < 120; ++m) {
            std::string text = seed;
            const uint64_t edits = 1 + rng.nextBelow(3);
            for (uint64_t e = 0; e < edits; ++e)
                mutate(text, rng);
            ++cases;

            const auto start = std::chrono::steady_clock::now();
            std::string error;
            auto mod = parseModule(text, &error);
            if (!mod) {
                EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
            } else {
                ++accepted;
                for (const auto &fn : mod->functions()) {
                    verifyFunction(*fn, VerifyLevel::Structural);
                    verifyFunction(*fn, VerifyLevel::Schedulable);
                }
                // Accepted text prints to a print->parse->print fixed
                // point, which is what makes canonical cache keys
                // stable.
                const std::string once = moduleToString(*mod);
                auto again = parseModule(once, &error);
                ASSERT_NE(again, nullptr) << error << "\n" << once;
                EXPECT_EQ(moduleToString(*again), once);
            }
            EXPECT_LT(std::chrono::steady_clock::now() - start,
                      std::chrono::seconds(2))
                << text;
        }
    }
    // Both outcomes must be exercised for the test to mean anything.
    EXPECT_GT(accepted, cases / 20);
    EXPECT_LT(accepted, cases);
}

} // namespace
} // namespace treegion::ir
