/**
 * @file
 * Unit tests for local tracing on the span collector: the pipeline's
 * stage scopes (SpanScope with Root::IfEnabled), enable/disable
 * semantics, thread-id stability, JSON escaping, and the shape of the
 * Chrome trace export (support/chrome_trace.h).
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "sched/pipeline.h"
#include "sched/schedule_verifier.h"
#include "support/chrome_trace.h"
#include "support/spans.h"
#include "support/thread_pool.h"
#include "workloads/synthetic.h"
#include "workloads/profiler.h"

namespace treegion::support {
namespace {

/** Reset the process-wide collector around every test; tracing on at
 * rate 1, as `--trace-json` turns it on. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SpanCollector &spans = SpanCollector::instance();
        spans.clear();
        spans.setService("treegion");
        spans.configure(1.0);
    }

    void
    TearDown() override
    {
        SpanCollector::instance().setEnabled(false);
        SpanCollector::instance().clear();
    }
};

/** A pipeline stage site, as the pipeline writes it. */
class StageScope : public SpanScope
{
  public:
    explicit StageScope(const char *name)
        : SpanScope(name, SpanScope::Root::IfEnabled)
    {
    }
};

const JsonArg *
findArg(const TraceSpan &s, const std::string &key)
{
    for (const JsonArg &a : s.args) {
        if (a.key == key)
            return &a;
    }
    return nullptr;
}

TEST_F(TraceTest, DisabledRecordsNothing)
{
    SpanCollector::instance().setEnabled(false);
    {
        StageScope span("stage");
        EXPECT_FALSE(span.live());
    }
    EXPECT_EQ(SpanCollector::instance().size(), 0u);
}

TEST_F(TraceTest, ScopeRecordsCompleteEvent)
{
    const int64_t before = epochUs();
    {
        StageScope span("formation");
        span.arg("scheme", "tree").arg("regions", int64_t{3});
    }
    const auto spans = SpanCollector::instance().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "formation");
    EXPECT_EQ(spans[0].parent, 0u);  // no ambient: its own root
    EXPECT_GE(spans[0].start_us, before);
    EXPECT_GE(spans[0].dur_us, 0);
    ASSERT_EQ(spans[0].args.size(), 2u);
    EXPECT_EQ(spans[0].args[0], JsonArg::ofStr("scheme", "tree"));
    EXPECT_EQ(spans[0].args[1], JsonArg::ofInt("regions", 3));
}

TEST_F(TraceTest, ScopeOpenedWhileDisabledStaysInert)
{
    SpanCollector::instance().setEnabled(false);
    {
        StageScope span("half");
        // Enabling mid-span must not emit a torn event at close.
        SpanCollector::instance().setEnabled(true);
    }
    EXPECT_EQ(SpanCollector::instance().size(), 0u);
}

TEST_F(TraceTest, ThreadIdsAreStableAndDistinct)
{
    const uint32_t main_a = currentThreadId();
    const uint32_t main_b = currentThreadId();
    EXPECT_EQ(main_a, main_b);
    uint32_t other = main_a;
    std::thread t([&] { other = currentThreadId(); });
    t.join();
    EXPECT_NE(other, main_a);
}

TEST_F(TraceTest, ParallelScopesAllLand)
{
    {
        ThreadPool pool(4);
        pool.parallelFor(64, [](size_t i) {
            StageScope span(i % 2 ? "odd" : "even");
        });
    }
    EXPECT_EQ(SpanCollector::instance().size(), 64u);
}

TEST_F(TraceTest, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape("cr\rtab\t"), "cr\\rtab\\t");
    EXPECT_EQ(jsonEscape(std::string("\x01")), "\\u0001");
}

/** @return true when @p json has balanced braces/brackets outside
 * strings and no empty-element commas. */
bool
balancedJson(const std::string &json)
{
    if (json.find(",]") != std::string::npos ||
        json.find("[,") != std::string::npos)
        return false;
    int braces = 0, brackets = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++braces;
        else if (c == '}')
            --braces;
        else if (c == '[')
            ++brackets;
        else if (c == ']')
            --brackets;
    }
    return braces == 0 && brackets == 0 && !in_string;
}

TEST_F(TraceTest, ChromeTraceShape)
{
    {
        StageScope span("sched \"quoted\"");
        span.arg("fn", "main").arg("ops", int64_t{12});
    }
    const std::string json =
        chromeTraceJson(SpanCollector::instance().snapshot());

    // The Chrome trace "JSON object format": a traceEvents array of
    // complete ("X") events behind one process_name ("M") event per
    // service.
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\","
                        "\"pid\":1,\"tid\":0,\"args\":{\"name\":"
                        "\"treegion\"}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("sched \\\"quoted\\\""), std::string::npos);
    // Span args keep their types after the trace/span ids.
    EXPECT_NE(json.find("\",\"fn\":\"main\",\"ops\":12}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"),
              std::string::npos);
    EXPECT_TRUE(balancedJson(json)) << json;
}

TEST_F(TraceTest, EmptyTraceIsStillValid)
{
    EXPECT_EQ(chromeTraceJson({}),
              "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

TEST_F(TraceTest, MultiServiceExportGetsOnePidPerService)
{
    std::vector<TraceSpan> spans(3);
    const char *services[] = {"replica:b", "replica:a", "replica:b"};
    for (size_t i = 0; i < spans.size(); ++i) {
        spans[i].trace_hi = 1;
        spans[i].span = i + 1;
        spans[i].name = "compile";
        spans[i].service = services[i];
    }
    const std::string json = chromeTraceJson(spans);
    // Pids are numbered in service-name order, one each.
    EXPECT_NE(json.find("\"pid\":1,\"tid\":0,\"args\":{\"name\":"
                        "\"replica:a\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\":2,\"tid\":0,\"args\":{\"name\":"
                        "\"replica:b\"}"),
              std::string::npos);
    EXPECT_EQ(json.find("\"pid\":3"), std::string::npos);
    size_t on_b = 0;
    for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
         at = json.find("\"ph\":\"X\"", at + 1))
        on_b += json.compare(json.find("\"pid\":", at), 8,
                             "\"pid\":2,") == 0;
    EXPECT_EQ(on_b, 2u);
    EXPECT_TRUE(balancedJson(json)) << json;
}

/**
 * What `treegionc --sweep --all-functions --trace-json` records: a
 * batch over the pool roots one trace per job, and every pipeline
 * stage of that job nests under its "job" span on the worker that ran
 * it — formation and schedule carry the region and op counts as args.
 */
TEST_F(TraceTest, TreegioncStyleRunNestsStagesUnderJobs)
{
    workloads::GenParams p;
    p.seed = 5;
    p.top_units = 4;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);

    std::vector<sched::PipelineJob> jobs;
    for (const auto scheme :
         {sched::RegionScheme::Treegion,
          sched::RegionScheme::TreegionTailDup,
          sched::RegionScheme::Hyperblock}) {
        sched::PipelineJob job;
        job.fn = &fn;
        job.options.scheme = scheme;
        job.label = sched::regionSchemeName(scheme);
        jobs.push_back(job);
    }
    const auto results = sched::runPipelineParallel(jobs, 2);
    for (const auto &r : results) {
        EXPECT_TRUE(sched::verifyFunctionSchedule(
                        r.result.schedule,
                        jobs[r.job_index].options.model.issue_width)
                        .empty());
    }

    const auto spans = SpanCollector::instance().snapshot();
    std::map<uint64_t, const TraceSpan *> by_id;
    for (const TraceSpan &s : spans)
        by_id[s.span] = &s;
    auto parentName = [&](const TraceSpan &s) -> std::string {
        const auto it = by_id.find(s.parent);
        if (it == by_id.end())
            return "";
        EXPECT_EQ(it->second->trace_lo, s.trace_lo) << s.name;
        return it->second->name;
    };

    std::map<std::string, size_t> count;
    for (const TraceSpan &s : spans) {
        ++count[s.name];
        if (s.name == "job" || s.name == "verify") {
            EXPECT_EQ(s.parent, 0u) << s.name;
        } else if (s.name == "formation" || s.name == "liveness" ||
                   s.name == "schedule") {
            EXPECT_EQ(parentName(s), "job") << s.name;
        } else if (s.name == "lower" || s.name == "ddg_build" ||
                   s.name == "list_sched") {
            EXPECT_EQ(parentName(s), "schedule") << s.name;
        } else {
            ADD_FAILURE() << "unexpected span " << s.name;
        }
    }
    EXPECT_EQ(count["job"], jobs.size());
    EXPECT_EQ(count["formation"], jobs.size());
    EXPECT_EQ(count["liveness"], jobs.size());
    EXPECT_EQ(count["schedule"], jobs.size());
    EXPECT_EQ(count["verify"], jobs.size());
    EXPECT_GT(count["list_sched"], 0u);

    for (size_t j = 0; j < results.size(); ++j) {
        // Each job's own stage spans carry its counts.
        const auto &r = results[j].result;
        size_t ops = 0;
        for (const auto &[root, rs] : r.schedule.regions)
            ops += rs.ops.size();
        bool saw_regions = false, saw_ops = false;
        for (const TraceSpan &s : spans) {
            const JsonArg *n = findArg(s, s.name == "formation"
                                              ? "regions"
                                              : "ops");
            if (!n || parentName(s) != "job")
                continue;
            const TraceSpan &job = *by_id.at(s.parent);
            if (findArg(job, "label")->s != results[j].label)
                continue;
            if (s.name == "formation")
                saw_regions = n->i == static_cast<int64_t>(
                                         r.regions.regions().size());
            else if (s.name == "schedule")
                saw_ops = n->i == static_cast<int64_t>(ops);
        }
        EXPECT_TRUE(saw_regions) << results[j].label;
        EXPECT_TRUE(saw_ops) << results[j].label;
    }
    EXPECT_TRUE(balancedJson(chromeTraceJson(spans)));
}

} // namespace
} // namespace treegion::support
