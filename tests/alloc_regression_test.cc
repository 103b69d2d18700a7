/**
 * @file
 * Allocation regression tests for the scheduling hot path and the
 * .tir front end.
 *
 * The arena refactor's core claim (DESIGN.md §11): after a warm-up
 * compile has grown the per-thread arena, DDG construction plus list
 * scheduling perform ZERO heap allocations. These tests pin that with
 * a counting operator new interposer (alloc_guard.h) around
 * runPlacementProbe, and check the arena's aggregate gauges are
 * reported through support::MetricsRegistry.
 *
 * Remarks and tracing stay disabled here: both are opt-in observers
 * that legitimately allocate, and the steady-state property concerns
 * production (observer-free) compiles.
 */

#include "alloc_guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "analysis/liveness.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "region/formation.h"
#include "sched/list_scheduler.h"
#include "support/flightrec.h"
#include "support/memstat.h"
#include "support/metrics.h"
#include "support/spans.h"
#include "workloads/profiler.h"
#include "workloads/synthetic.h"

namespace treegion::sched {
namespace {

/** Lowered treegions of a synthetic function, largest first. */
std::vector<LoweredRegion>
lowerWorkload(ir::Function &fn)
{
    region::RegionSet set = region::formTreegions(fn);
    analysis::Liveness live(fn);
    std::vector<LoweredRegion> jobs;
    for (const region::Region &r : set.regions())
        jobs.push_back(lowerRegion(fn, r, live));
    std::sort(jobs.begin(), jobs.end(),
              [](const LoweredRegion &a, const LoweredRegion &b) {
                  return a.ops.size() > b.ops.size();
              });
    return jobs;
}

TEST(AllocRegression, SteadyStateSchedulingIsHeapFree)
{
    workloads::GenParams p;
    p.seed = 12;
    p.top_units = 8;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);

    const MachineModel model = MachineModel::custom(4);
    const SchedOptions options;
    std::vector<LoweredRegion> jobs = lowerWorkload(fn);
    ASSERT_FALSE(jobs.empty());

    // Warm-up: one probe per region grows the thread's arena to this
    // workload's high-water mark; the blocks are retained across
    // reset(), so the replay below runs entirely out of them.
    std::vector<int> warm_lengths;
    for (const LoweredRegion &job : jobs) {
        warm_lengths.push_back(
            runPlacementProbe(fn, job, model, options));
    }

    // Replay the same jobs. The inputs are copied BEFORE the guard
    // opens; inside it the scheduler must not touch the heap.
    std::vector<LoweredRegion> replay = jobs;
    std::vector<int> replay_lengths;
    replay_lengths.reserve(replay.size());
    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        for (LoweredRegion &job : replay) {
            replay_lengths.push_back(runPlacementProbe(
                fn, std::move(job), model, options));
        }
        allocations = guard.allocations();
    }
    EXPECT_EQ(allocations, 0u)
        << "scheduling hot path allocated on a warm arena";

    // Placement is deterministic, so the replay lengths match.
    EXPECT_EQ(replay_lengths, warm_lengths);
    for (const int length : warm_lengths)
        EXPECT_GT(length, 0);
}

/**
 * The tracing observers are compiled into every binary; the claim
 * that keeps them free is that DISABLED observers cost nothing on
 * the hot path — no clock reads and, pinned here, no allocation.
 * Inert SpanScope construction (stage sites included), ambient-
 * context reads and flight-recorder notes must all run heap-free, or
 * always-on instrumentation would break the arena steady-state
 * property above.
 */
TEST(AllocRegression, DisabledTracingObserversAreHeapFree)
{
    auto &spans = support::SpanCollector::instance();
    spans.setEnabled(false);
    ASSERT_FALSE(spans.enabled());

    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        for (int i = 0; i < 256; ++i) {
            support::SpanScope stage("schedule",
                                     support::SpanScope::Root::IfEnabled);
            support::SpanScope child("cache-lookup");
            support::SpanScope root(
                "request", support::SpanScope::Root::IfEnabled);
            child.arg("hit", int64_t{1});  // inert: must not buffer
            support::noteSpan(support::currentSpanContext(),
                              "queue-wait", 0, 1);
            support::flightrec::note("probe", "steady-state",
                                     static_cast<uint64_t>(i));
        }
        allocations = guard.allocations();
    }
    EXPECT_EQ(allocations, 0u)
        << "disabled tracing observers allocated";
}

/**
 * The same claim for a collector that is on but whose root lost its
 * sampling roll: the unsampled root installs its context, and every
 * stage scope, child and note below it stays inert and heap-free.
 */
TEST(AllocRegression, UnsampledRootsKeepNestedScopesHeapFree)
{
    auto &spans = support::SpanCollector::instance();
    spans.clear();
    spans.configure(0.0);

    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        for (int i = 0; i < 256; ++i) {
            support::SpanScope root(
                "request", support::SpanScope::Root::IfEnabled);
            support::SpanScope stage("schedule",
                                     support::SpanScope::Root::IfEnabled);
            stage.arg("ops", int64_t{1});
            support::noteSpan(support::currentSpanContext(),
                              "queue-wait", 0, 1);
        }
        allocations = guard.allocations();
    }
    const size_t recorded = spans.size();
    spans.configure(1.0);
    spans.setEnabled(false);
    EXPECT_EQ(recorded, 0u);
    EXPECT_EQ(allocations, 0u) << "unsampled scopes allocated";
}

TEST(AllocRegression, ArenaMetricsReported)
{
    workloads::GenParams p;
    p.seed = 5;
    p.top_units = 4;
    p.mem_words = 1024;
    auto mod = workloads::generateProgram("x", p);
    ir::Function &fn = mod->function("main");
    workloads::profileFunction(fn, p.mem_words);

    const MachineModel model = MachineModel::custom(4);
    const SchedOptions options;
    std::vector<LoweredRegion> jobs = lowerWorkload(fn);
    ASSERT_FALSE(jobs.empty());

    support::MetricsRegistry before;
    reportArenaMetrics(before);
    const uint64_t jobs_before = before.counter("sched.arena.jobs");

    size_t probes = 0;
    for (LoweredRegion &job : jobs) {
        runPlacementProbe(fn, std::move(job), model, options);
        ++probes;
    }

    support::MetricsRegistry metrics;
    reportArenaMetrics(metrics);
    EXPECT_EQ(metrics.counter("sched.arena.jobs"),
              jobs_before + probes);
    // The gauges aggregate maxima over every thread that ever
    // scheduled; after at least one job both are nonzero and the
    // capacity covers the high-water mark.
    const uint64_t high = metrics.counter("sched.arena.high_water_bytes");
    const uint64_t cap = metrics.counter("sched.arena.capacity_bytes");
    EXPECT_GT(high, 0u);
    EXPECT_GE(cap, high);
}

/** A generated, profiled module and its printed text. */
struct PrintedWorkload
{
    std::unique_ptr<ir::Module> mod;
    std::string text;
};

PrintedWorkload
printedWorkload()
{
    workloads::GenParams p;
    p.seed = 9;
    p.top_units = 8;
    p.mem_words = 1024;
    PrintedWorkload w{workloads::generateProgram("x", p), {}};
    workloads::profileFunction(w.mod->function("main"), p.mem_words);
    w.text = ir::moduleToString(*w.mod);
    return w;
}

/**
 * The parser allocates the IR it returns and nothing per line or per
 * token: one allocation per non-empty op vector, two per block (the
 * block and its op vector) and its edge weights, plus a fixed
 * overhead for the module, the function, the block table's growth
 * and the parser's two reused token buffers.
 */
TEST(AllocRegression, ParserAllocatesOnlyTheIrItReturns)
{
    const PrintedWorkload w = printedWorkload();
    std::string error;
    std::unique_ptr<ir::Module> parsed;
    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        parsed = ir::parseModule(w.text, &error);
        allocations = guard.allocations();
    }
    ASSERT_NE(parsed, nullptr) << error;

    uint64_t kept = 0;
    size_t ops = 0;
    parsed->function("main").forEachBlock([&](const ir::BasicBlock &b) {
        kept += 2 + !b.edgeWeights().empty();
        for (const ir::Op &op : b.ops()) {
            kept += !op.dsts.empty() + !op.srcs.empty() +
                    !op.targets.empty() + !op.caseValues.empty();
            ++ops;
        }
    });
    ASSERT_GT(ops, 200u);
    EXPECT_LE(allocations, kept + 48)
        << ops << " ops; the IR needs " << kept << " allocations";
}

TEST(AllocRegression, PrinterAppendsWithoutAllocating)
{
    const PrintedWorkload w = printedWorkload();
    std::string out;
    out.reserve(2 * w.text.size());
    uint64_t allocations;
    {
        tg_test::AllocGuard guard;
        ir::appendModule(out, *w.mod);
        allocations = guard.allocations();
    }
    EXPECT_EQ(out, w.text);
    EXPECT_EQ(allocations, 0u);
}

/**
 * A branch to a far block id used to create every block up to it
 * before the parse failed (~2 GB and seconds for bb20000000); targets
 * now resolve at the end of the function and reserve nothing.
 */
TEST(AllocRegression, FarBranchTargetsAreRejectedWithoutGrowth)
{
    for (const char *target : {"bb20000000", "bb4294967294"}) {
        const std::string text =
            std::string("module m mem=1024\nfunc @f entry=bb0 {\n"
                        "  block bb0 weight=1 {\n    BRU ") +
            target + "\n  }\n}\n";
        const uint64_t start_bytes = support::memstatResetWindow();
        const auto start = std::chrono::steady_clock::now();
        std::string error;
        EXPECT_EQ(ir::parseModule(text, &error), nullptr);
        const auto elapsed = std::chrono::steady_clock::now() - start;
        EXPECT_EQ(error, std::string("line 6: branch to undefined block ") +
                             target);
        EXPECT_LT(elapsed, std::chrono::milliseconds(50)) << target;
        EXPECT_LT(support::memstatWindowPeakBytes() - start_bytes,
                  uint64_t{16} << 20)
            << target;
    }
}

} // namespace
} // namespace treegion::sched
