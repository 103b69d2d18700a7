/**
 * @file
 * Tests for the distributed-tracing span subsystem (support/spans.h),
 * the crash flight recorder (support/flightrec.h) and the build-info
 * block (support/build_info.h).
 *
 * The span JSONL schema gets the same treatment as the remarks
 * schema in remarks_test.cc: exact round-trips through the strict
 * parser, and a rejection battery proving unknown fields, duplicate
 * fields, missing fields and malformed values cannot creep in — the
 * schema is an interface consumed by treegion-report --trace-merge
 * and CI, not a debug dump.
 */

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/build_info.h"
#include "support/flightrec.h"
#include "support/logging.h"
#include "support/spans.h"
#include "support/string_utils.h"

using namespace treegion;

namespace {

/** Reset the process-wide collector around every test. */
class SpanTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto &collector = support::SpanCollector::instance();
        collector.setEnabled(false);
        collector.clear();
        collector.setService("treegion");
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream file(path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
}

// ---- ids and hex ---------------------------------------------------

TEST_F(SpanTest, MintedIdsAreNonZeroAndDistinct)
{
    const uint64_t a = support::mintSpanId();
    const uint64_t b = support::mintSpanId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

TEST_F(SpanTest, TraceIdHexRoundTrip)
{
    const uint64_t hi = 0x0123456789abcdefull;
    const uint64_t lo = 0xfedcba9876543210ull;
    const std::string hex = support::traceIdHex(hi, lo);
    EXPECT_EQ(hex.size(), 32u);
    EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
    uint64_t hi2 = 0, lo2 = 0;
    ASSERT_TRUE(support::parseTraceIdHex(hex, &hi2, &lo2));
    EXPECT_EQ(hi2, hi);
    EXPECT_EQ(lo2, lo);
}

TEST_F(SpanTest, SpanIdHexRoundTrip)
{
    const uint64_t id = 0x00ff00ff12345678ull;
    const std::string hex = support::spanIdHex(id);
    EXPECT_EQ(hex.size(), 16u);
    uint64_t id2 = 0;
    ASSERT_TRUE(support::parseSpanIdHex(hex, &id2));
    EXPECT_EQ(id2, id);
}

TEST_F(SpanTest, BadHexRejected)
{
    uint64_t hi = 0, lo = 0, id = 0;
    EXPECT_FALSE(support::parseTraceIdHex("1234", &hi, &lo));
    EXPECT_FALSE(support::parseTraceIdHex(
        "0123456789abcdeffedcba987654321g", &hi, &lo));
    EXPECT_FALSE(support::parseSpanIdHex("", &id));
    EXPECT_FALSE(support::parseSpanIdHex("123456789abcdefg", &id));
    EXPECT_FALSE(
        support::parseSpanIdHex("0123456789abcdef0", &id));
}

// ---- JSON round trip -----------------------------------------------

support::TraceSpan
sampleSpan()
{
    support::TraceSpan s;
    s.trace_hi = 0x1111222233334444ull;
    s.trace_lo = 0x5555666677778888ull;
    s.span = 0x9999aaaabbbbccccull;
    s.parent = 0xddddeeeeffff0001ull;
    s.name = "compile";
    s.service = "replica:1";
    s.tid = 7;
    s.start_us = 1700000000000000;
    s.dur_us = 1234;
    support::JsonArg str;
    str.key = "fn";
    str.type = support::JsonArg::Type::Str;
    str.s = "main \"quoted\"\\path\n";
    s.args.push_back(str);
    support::JsonArg num;
    num.key = "ops";
    num.type = support::JsonArg::Type::Int;
    num.i = -42;
    s.args.push_back(num);
    support::JsonArg flt;
    flt.key = "ratio";
    flt.type = support::JsonArg::Type::Float;
    flt.f = 0.125;
    s.args.push_back(flt);
    return s;
}

TEST_F(SpanTest, JsonRoundTripExact)
{
    const support::TraceSpan original = sampleSpan();
    const std::string line = original.toJson();
    support::TraceSpan parsed;
    std::string error;
    ASSERT_TRUE(support::parseSpanJson(line, parsed, &error))
        << error;
    EXPECT_EQ(parsed, original);
    // Canonical form is a fixed point: serialize -> parse ->
    // serialize is byte-identical.
    EXPECT_EQ(parsed.toJson(), line);
}

TEST_F(SpanTest, RootParentSerializesAsEmpty)
{
    support::TraceSpan s = sampleSpan();
    s.parent = 0;
    const std::string line = s.toJson();
    EXPECT_NE(line.find("\"parent\":\"\""), std::string::npos);
    support::TraceSpan parsed;
    ASSERT_TRUE(support::parseSpanJson(line, parsed, nullptr));
    EXPECT_EQ(parsed.parent, 0u);
}

TEST_F(SpanTest, SubnormalAndNonFiniteArgsStayParseable)
{
    support::TraceSpan s = sampleSpan();
    s.args.push_back(support::JsonArg::ofFloat("tiny", 1e-310));
    support::TraceSpan parsed;
    std::string error;
    ASSERT_TRUE(support::parseSpanJson(s.toJson(), parsed, &error))
        << error;
    EXPECT_EQ(parsed, s);

    // Non-finite floats travel as the strings "NaN"/"Infinity".
    s.args.back() = support::JsonArg::ofFloat("ratio", NAN);
    const std::string line = s.toJson();
    EXPECT_NE(line.find("\"ratio\":\"NaN\""), std::string::npos) << line;
    ASSERT_TRUE(support::parseSpanJson(line, parsed, &error)) << error;
    EXPECT_EQ(parsed.args.back(), support::JsonArg::ofStr("ratio", "NaN"));
}

TEST_F(SpanTest, ParserRejectsMalformedLines)
{
    const std::string good = sampleSpan().toJson();
    support::TraceSpan out;
    std::string error;

    // Unknown field.
    std::string bad = good;
    bad.insert(bad.size() - 1, ",\"extra\":1");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_EQ(error, "unknown field 'extra'");

    // Duplicate field.
    bad = good;
    bad.insert(bad.size() - 1, ",\"tid\":7");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_EQ(error, "duplicate field 'tid'");

    // Missing field.
    bad = good;
    const size_t tid = bad.find(",\"tid\":7");
    ASSERT_NE(tid, std::string::npos);
    bad.erase(tid, 8);
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_EQ(error, "missing required field 'tid'");

    // Trailing garbage after the object.
    EXPECT_FALSE(support::parseSpanJson(good + " x", out, &error));
    EXPECT_EQ(error, "trailing characters after the span object");

    // Bad trace hex (too short).
    bad = good;
    const size_t trace = bad.find("\"trace\":\"");
    ASSERT_NE(trace, std::string::npos);
    bad.erase(trace + 9, 4);
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_EQ(error, "'trace' must be 32 hex digits");

    // A tid past 32 bits is rejected, not truncated.
    bad = good;
    bad.replace(bad.find("\"tid\":7"), 7, "\"tid\":4294967296");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_EQ(error, "'tid' must fit in 32 bits");
    bad = good;
    bad.replace(bad.find("\"tid\":7"), 7, "\"tid\":4294967295");
    ASSERT_TRUE(support::parseSpanJson(bad, out, &error)) << error;
    EXPECT_EQ(out.tid, UINT32_MAX);

    // Non-scalar arg value.
    bad = good;
    const size_t args = bad.find("\"args\":{");
    ASSERT_NE(args, std::string::npos);
    bad.insert(args + 8, "\"nested\":{},");
    EXPECT_FALSE(support::parseSpanJson(bad, out, &error));
    EXPECT_EQ(error, "argument 'nested' must be a scalar");

    // Not an object at all.
    EXPECT_FALSE(support::parseSpanJson("[]", out, &error));
    EXPECT_EQ(error, "expected '{' at offset 0");
    EXPECT_FALSE(support::parseSpanJson("", out, &error));
    EXPECT_EQ(error, "expected '{' at offset 0");
}

// ---- scopes and ambient context ------------------------------------

TEST_F(SpanTest, InertWhenDisabled)
{
    auto &collector = support::SpanCollector::instance();
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        EXPECT_FALSE(root.live());
        EXPECT_FALSE(support::currentSpanContext().valid());
    }
    EXPECT_EQ(collector.size(), 0u);
}

TEST_F(SpanTest, ChildOnlyScopeInertWithoutAmbient)
{
    support::SpanCollector::instance().configure(1.0);
    support::SpanScope child("cache-lookup");
    EXPECT_FALSE(child.live());
}

TEST_F(SpanTest, RootAndChildNestAndRestoreAmbient)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        EXPECT_TRUE(support::currentSpanContext().valid());
        EXPECT_EQ(support::currentSpanContext().span,
                  root.context().span);
        {
            support::SpanScope child("compile");
            ASSERT_TRUE(child.live());
            EXPECT_EQ(child.context().trace_hi,
                      root.context().trace_hi);
            EXPECT_EQ(support::currentSpanContext().span,
                      child.context().span);
        }
        // Child gone: ambient context back to the root.
        EXPECT_EQ(support::currentSpanContext().span,
                  root.context().span);
    }
    EXPECT_FALSE(support::currentSpanContext().valid());

    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);  // child recorded first
    EXPECT_EQ(spans[0].name, "compile");
    EXPECT_EQ(spans[1].name, "request");
    EXPECT_EQ(spans[0].parent, spans[1].span);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[0].trace_hi, spans[1].trace_hi);
    EXPECT_EQ(spans[0].trace_lo, spans[1].trace_lo);
}

TEST_F(SpanTest, SampleRateZeroRecordsNothing)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(0.0);
    for (int i = 0; i < 32; ++i) {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        EXPECT_FALSE(root.live());
    }
    EXPECT_EQ(collector.size(), 0u);
}

TEST_F(SpanTest, ServiceOverridePropagatesToChildren)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled,
                                "replica:9000");
        ASSERT_TRUE(root.live());
        support::SpanScope child("compile");
        ASSERT_TRUE(child.live());
    }
    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].service, "replica:9000");
    EXPECT_EQ(spans[1].service, "replica:9000");
}

TEST_F(SpanTest, FinishRecordsOnceAndKeepsContext)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        root.finish();
        EXPECT_FALSE(root.live());
        EXPECT_TRUE(root.context().valid());
        root.finish();  // idempotent; destructor must not re-record
    }
    EXPECT_EQ(collector.snapshot().size(), 1u);
}

TEST_F(SpanTest, NoteSpanAttachesCompletedInterval)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    support::SpanContext parent;
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        parent = root.context();
        support::noteSpan(parent, "queue-wait", 100, 250);
    }
    // Invalid parent: inert.
    support::noteSpan(support::SpanContext{}, "ignored", 0, 10);

    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "queue-wait");
    EXPECT_EQ(spans[0].parent, parent.span);
    EXPECT_EQ(spans[0].start_us, 100);
    EXPECT_EQ(spans[0].dur_us, 150);
}

TEST_F(SpanTest, StageScopeNestsUnderAmbientTrace)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        ASSERT_TRUE(root.live());
        // A pipeline stage site: a root of its own when nothing
        // encloses it, a child of the ambient trace when something
        // does.
        support::SpanScope stage("formation",
                                 support::SpanScope::Root::IfEnabled);
    }
    const auto spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "formation");
    EXPECT_EQ(spans[1].name, "request");
    EXPECT_EQ(spans[0].parent, spans[1].span);
}

TEST_F(SpanTest, UnsampledRootKeepsNestedScopesInert)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(0.0);
    {
        support::SpanScope outer("client-request",
                                 support::SpanScope::Root::IfEnabled);
        EXPECT_FALSE(outer.live());
        // The decision is installed for the scope's lifetime...
        const support::SpanContext ctx = support::currentSpanContext();
        EXPECT_TRUE(ctx.valid());
        EXPECT_FALSE(ctx.sampled);
        // ...so a nested root-capable scope does not roll again.
        collector.configure(1.0);
        support::SpanScope inner("call",
                                 support::SpanScope::Root::IfEnabled);
        EXPECT_FALSE(inner.live());
    }
    EXPECT_FALSE(support::currentSpanContext().valid());
    EXPECT_EQ(collector.size(), 0u);
}

TEST_F(SpanTest, SamplingIsDecidedOnceAtTheRoot)
{
    // ClusterClient::callRouted wraps Client::call, and both may root
    // a trace: every recorded inner span must hang off a recorded
    // outer one, and the outer roll alone decides.
    auto &collector = support::SpanCollector::instance();
    collector.configure(0.5);
    constexpr int kPairs = 2000;
    for (int i = 0; i < kPairs; ++i) {
        support::SpanScope outer("client-request",
                                 support::SpanScope::Root::IfEnabled);
        support::SpanScope inner("call",
                                 support::SpanScope::Root::IfEnabled);
        EXPECT_EQ(inner.live(), outer.live());
    }
    const auto spans = collector.snapshot();
    size_t outers = 0;
    for (size_t k = 0; k < spans.size(); ++k) {
        if (spans[k].name == "client-request") {
            ++outers;
            EXPECT_EQ(spans[k].parent, 0u);
        } else {
            // Children are recorded first, right before their parent.
            ASSERT_LT(k + 1, spans.size());
            EXPECT_EQ(spans[k].parent, spans[k + 1].span);
        }
    }
    EXPECT_EQ(spans.size(), 2 * outers);
    EXPECT_GT(outers, 0u);
    EXPECT_LT(outers, static_cast<size_t>(kPairs));
}

TEST_F(SpanTest, WriteJsonlRoundTripsThroughParser)
{
    auto &collector = support::SpanCollector::instance();
    collector.configure(1.0);
    {
        support::SpanScope root("request",
                                support::SpanScope::Root::IfEnabled);
        root.arg("verb", "compile").arg("n", int64_t{3});
    }
    const std::string path =
        ::testing::TempDir() + "/span_roundtrip.jsonl";
    ASSERT_TRUE(collector.writeJsonl(path));
    EXPECT_EQ(collector.size(), 0u);  // drained by the write

    std::ifstream file(path);
    std::string line;
    size_t lines = 0;
    while (std::getline(file, line)) {
        support::TraceSpan s;
        std::string error;
        EXPECT_TRUE(support::parseSpanJson(line, s, &error))
            << error;
        ++lines;
    }
    EXPECT_EQ(lines, 1u);
    ::unlink(path.c_str());
}

// ---- flight recorder -----------------------------------------------

TEST(FlightRecTest, NotesAreCountedAndDumped)
{
    const uint64_t before = support::flightrec::noteCount();
    support::flightrec::note("test-tag", "detail-text", 11, 22);
    EXPECT_EQ(support::flightrec::noteCount(), before + 1);

    const std::string path =
        ::testing::TempDir() + "/flightrec_dump.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("test-tag"), std::string::npos);
    EXPECT_NE(dump.find("detail-text"), std::string::npos);
    EXPECT_NE(dump.find("\"a\":11"), std::string::npos);
    EXPECT_NE(dump.find("\"b\":22"), std::string::npos);
    ::unlink(path.c_str());
}

TEST(FlightRecTest, RingWrapsKeepingNewestEvents)
{
    for (int i = 0; i < support::flightrec::kRingEvents + 50; ++i)
        support::flightrec::note("wrap", nullptr,
                                 static_cast<uint64_t>(i));
    const std::string path =
        ::testing::TempDir() + "/flightrec_wrap.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    // The oldest notes were overwritten; the newest survived.
    EXPECT_EQ(dump.find("\"a\":0,"), std::string::npos);
    EXPECT_NE(
        dump.find(support::strprintf(
            "\"a\":%d", support::flightrec::kRingEvents + 49)),
        std::string::npos);
    ::unlink(path.c_str());
}

TEST(FlightRecTest, ThreadsGetTheirOwnRings)
{
    std::thread other(
        [] { support::flightrec::note("other-thread"); });
    other.join();
    support::flightrec::note("main-thread");
    const std::string path =
        ::testing::TempDir() + "/flightrec_threads.jsonl";
    ASSERT_TRUE(support::flightrec::dumpToFile(path.c_str()));
    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("other-thread"), std::string::npos);
    EXPECT_NE(dump.find("main-thread"), std::string::npos);
    ::unlink(path.c_str());
}

/**
 * The actual crash path: a child process arms the recorder the way
 * treegiond does (dump path + crash handlers + panic hook), notes a
 * breadcrumb, then hits TG_PANIC. The parent asserts the child died
 * by SIGABRT and left a dump containing the breadcrumb — the exact
 * artifact an operator would pick up after a daemon crash.
 */
TEST(FlightRecTest, PanicInChildProcessLeavesDump)
{
    const std::string path =
        ::testing::TempDir() + "/flightrec_panic.jsonl";
    ::unlink(path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: silence the panic banner, arm, crash.
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0)
            ::dup2(null_fd, STDERR_FILENO);
        support::flightrec::setDumpPath(path.c_str());
        support::flightrec::installCrashHandlers();
        support::setPanicHook(&support::flightrec::dumpConfigured);
        support::flightrec::note("pre-crash", "breadcrumb", 77);
        TG_PANIC("deliberate test panic");
        ::_exit(0);  // unreachable
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGABRT);

    const std::string dump = readFile(path);
    EXPECT_NE(dump.find("pre-crash"), std::string::npos);
    EXPECT_NE(dump.find("breadcrumb"), std::string::npos);
    ::unlink(path.c_str());
}

// ---- build info ----------------------------------------------------

TEST(BuildInfoTest, JsonCarriesTheExpectedKeys)
{
    const std::string info = support::buildInfoJson();
    EXPECT_NE(info.find("\"git\":"), std::string::npos);
    EXPECT_NE(info.find("\"compiler\":"), std::string::npos);
    EXPECT_NE(info.find("\"build_type\":"), std::string::npos);
    EXPECT_NE(info.find("\"span_schema\":\"treegion-span/v1\""),
              std::string::npos);
    EXPECT_NE(info.find("\"protocol\":"), std::string::npos);
}

TEST(BuildInfoTest, UptimeAdvances)
{
    EXPECT_GE(support::uptimeSeconds(), 0.0);
}

} // namespace
