#include "workloads.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "analysis/liveness.h"
#include "inputs.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "region/formation.h"
#include "region/region_stats.h"
#include "sched/ddg.h"
#include "sched/hyperblock_lowering.h"
#include "sched/list_scheduler.h"
#include "sched/perf_model.h"
#include "sched/pipeline.h"
#include "sched/priority.h"
#include "sched/region_index.h"
#include "sched/schedule_verifier.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/server.h"
#include "spans.h"
#include "support/arena.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/string_utils.h"
#include "support/thread_pool.h"
#include "vliw/equivalence.h"
#include "workloads/profiler.h"

namespace perfbench {

using namespace treegion;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Nearest-rank p99 has ten samples beyond it from n = 1000 on. */
constexpr size_t kMinSamples = 1000;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;
constexpr size_t kMaxProblems = 8;

/** Failure bookkeeping shared by the windows and the gate. */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (problems.size() < kMaxProblems)
            problems.push_back(why);
    }
};

/** One measured window. */
struct Window
{
    uint64_t ok = 0;  ///< verified compiles / ok responses
    double wall_ms = 0.0;
    std::vector<double> latency_ms;
    /** Latency samples per percentile chunk: kMinSamples, rounded up
     * to whole passes for the batch workloads so that every chunk
     * holds the same mix of jobs. */
    size_t chunk = kMinSamples;
    /** Completions per second of each pass (batch) or chunk of
     * kMinSamples completions (serve); their median resists bursts
     * of host noise. */
    std::vector<double> slice_rates;

    double
    perSecond() const
    {
        if (!slice_rates.empty())
            return median(slice_rates);
        return wall_ms > 0.0 ? ok / (wall_ms / 1e3) : 0.0;
    }
};

/** Per-compile counts the traced layer-by-layer compile collects. */
struct LayerCounts
{
    uint64_t compiles = 0;
    uint64_t exit_copies = 0;
    uint64_t renamed_defs = 0;
    uint64_t ddg_edges = 0;
    uint64_t ops = 0;
    uint64_t speculated = 0;
    uint64_t elided = 0;
    uint64_t verify_problems = 0;
    uint64_t regions = 0;
    uint64_t blocks_added = 0;
    double wall_ms = 0.0;  ///< summed compile wall time

    void
    add(const LayerCounts &o)
    {
        compiles += o.compiles;
        exit_copies += o.exit_copies;
        renamed_defs += o.renamed_defs;
        ddg_edges += o.ddg_edges;
        ops += o.ops;
        speculated += o.speculated;
        elided += o.elided;
        verify_problems += o.verify_problems;
        regions += o.regions;
        blocks_added += o.blocks_added;
        wall_ms += o.wall_ms;
    }
};

/** What a traced compile produced. */
struct CompileOutcome
{
    double estimated_time = 0.0;
    size_t scheduled_ops = 0;
    LayerCounts counts;
};

size_t
countBlocks(const ir::Function &fn)
{
    size_t n = 0;
    fn.forEachBlock([&](const ir::BasicBlock &) { ++n; });
    return n;
}

size_t
scheduledOps(const sched::FunctionSchedule &schedule)
{
    size_t n = 0;
    for (const auto &[root, rs] : schedule.regions)
        n += rs.ops.size();
    return n;
}

/** The outcome fields a library pipeline run reports. */
CompileOutcome
outcomeOf(const sched::PipelineResult &result)
{
    CompileOutcome c;
    c.estimated_time = result.estimated_time;
    c.scheduled_ops = scheduledOps(result.schedule);
    return c;
}

region::RegionSet
formRegions(ir::Function &fn, const sched::PipelineOptions &o)
{
    using sched::RegionScheme;
    switch (o.scheme) {
      case RegionScheme::BasicBlock:
        return region::formBasicBlockRegions(fn);
      case RegionScheme::Slr: return region::formSlrs(fn);
      case RegionScheme::Superblock:
        return region::formSuperblocks(fn, o.superblock);
      case RegionScheme::Treegion: return region::formTreegions(fn);
      case RegionScheme::TreegionTailDup:
        return region::formTreegionsTailDup(fn, o.tail_dup);
      case RegionScheme::Hyperblock:
        return region::formHyperblocks(fn, o.hyperblock);
    }
    TG_PANIC("bad RegionScheme");
}

/**
 * sched::runPipeline on a clone of @p input, one public layer call at
 * a time, each under its own span. The DDG and priority spans repeat
 * work scheduleLoweredRegion does internally (they are the only
 * duplicated work, and are marked so) to split the scheduler's time.
 * The caller opens the enclosing "compile" span.
 */
CompileOutcome
tracedPipeline(const ir::Function &input,
               const sched::PipelineOptions &o)
{
    thread_local support::Arena dup_arena;
    const auto start = Clock::now();
    CompileOutcome out;
    size_t original_ops = 0;
    size_t blocks_before = 0;
    std::optional<ir::Function> fn;
    {
        SpanScope span("ir.clone");
        fn.emplace(input.clone());
        original_ops = fn->totalOps();
        blocks_before = countBlocks(*fn);
    }
    std::optional<region::RegionSet> regions;
    {
        SpanScope span("region.formation");
        regions.emplace(formRegions(*fn, o));
    }
    {
        SpanScope span("region.stats");
        region::computeRegionStats(*fn, *regions);
        region::codeExpansionFactor(*fn, original_ops);
        out.counts.regions = regions->regions().size();
        out.counts.blocks_added = countBlocks(*fn) - blocks_before;
    }
    std::optional<analysis::Liveness> live;
    {
        SpanScope span("analysis.liveness");
        live.emplace(*fn);
    }

    std::optional<sched::FunctionSchedule> schedule;
    schedule.emplace().entry = fn->entry();
    for (const region::Region &r : regions->regions()) {
        std::optional<sched::LoweredRegion> lowered;
        {
            SpanScope span("sched.lower");
            if (r.kind() == region::RegionKind::Hyperblock) {
                lowered.emplace(sched::lowerHyperblock(*fn, r, *live));
            } else {
                sched::LowerOptions lower;
                lower.materialize_pbr = o.sched.materialize_pbr;
                lowered.emplace(sched::lowerRegion(*fn, r, *live, lower));
            }
        }
        std::optional<sched::RegionIndex> index;
        std::optional<sched::Ddg> ddg;
        {
            SpanScope span("sched.ddg", 0, /*duplicate=*/true);
            dup_arena.reset();
            index.emplace(*lowered, dup_arena);
            ddg.emplace(*lowered, *index, dup_arena);
            for (size_t i = 0; i < ddg->size(); ++i)
                out.counts.ddg_edges += ddg->succs(i).size();
        }
        {
            SpanScope span("sched.priority", 0, /*duplicate=*/true);
            const sched::PriorityKeys *keys = sched::computePriorityKeys(
                *fn, *lowered, *index, *ddg, dup_arena);
            sched::sortByPriority(keys, ddg->size(), o.sched.heuristic,
                                  dup_arena);
        }
        {
            SpanScope span("sched.schedule");
            sched::RegionSchedule rs = sched::scheduleLoweredRegion(
                *fn, std::move(*lowered), o.model, o.sched);
            out.estimated_time += sched::estimateRegionTime(rs);
            out.scheduled_ops += rs.ops.size();
            out.counts.exit_copies += rs.stats.exit_copies;
            out.counts.renamed_defs += rs.stats.renamed_defs;
            out.counts.speculated += rs.stats.speculated_ops;
            out.counts.elided += rs.stats.elided_ops;
            schedule->regions.emplace(r.root(), std::move(rs));
        }
    }
    {
        SpanScope span("sched.verify");
        out.counts.verify_problems =
            sched::verifyFunctionSchedule(*schedule, o.model.issue_width)
                .size();
    }
    {
        // Freeing the compile's IR, regions and schedule is part of
        // its cost in the untraced pipeline too.
        SpanScope span("pipeline.teardown");
        schedule.reset();
        live.reset();
        regions.reset();
        fn.reset();
    }
    out.counts.ops = out.scheduled_ops;
    out.counts.compiles = 1;
    out.counts.wall_ms = msSince(start);
    return out;
}

/** Parse @p t and check its first function is schedulable. */
std::unique_ptr<ir::Module>
parseVerified(const TextModule &t)
{
    std::string error;
    std::unique_ptr<ir::Module> mod;
    {
        SpanScope span("ir.parse");
        mod = ir::parseModule(t.text, &error);
    }
    if (!mod || mod->functions().empty())
        throw std::runtime_error(t.name + ": parse error: " + error);
    countWork("ir.parse.bytes", t.text.size());
    std::vector<std::string> problems;
    {
        SpanScope span("ir.verify");
        problems = ir::verifyFunction(*mod->functions().front(),
                                      ir::VerifyLevel::Schedulable);
    }
    if (!problems.empty())
        throw std::runtime_error(t.name + ": IR verifier: " +
                                 problems.front());
    return mod;
}

sched::PipelineOptions
makeOptions(sched::RegionScheme scheme, sched::Heuristic heuristic,
            const sched::MachineModel &model)
{
    sched::PipelineOptions o;
    o.scheme = scheme;
    o.sched.heuristic = heuristic;
    o.model = model;
    return o;
}

std::string
configLabel(const sched::PipelineOptions &o)
{
    return sched::regionSchemeName(o.scheme) + "/" +
           sched::heuristicName(o.sched.heuristic) + "/" + o.model.name;
}

uint64_t
peakRssKib()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    uint64_t kib = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib;
}

/** (value, samples) by metric name; ordered() lists them. */
using Values = std::map<std::string, std::pair<double, uint64_t>>;

/** Per-layer self time per call (module-level) or per compile. */
double
selfPer(const SpanSummary &s, const std::string &layer, double per)
{
    const auto it = s.layers.find(layer);
    if (it == s.layers.end())
        return 0.0;
    const double n =
        per > 0.0 ? per : static_cast<double>(it->second.calls);
    return n > 0.0 ? it->second.self_ms / n : 0.0;
}

/** The compile-level layer metrics shared by every workload. */
void
compileLayerValues(const SpanSummary &s, const LayerCounts &c,
                   Values &v)
{
    const double n = static_cast<double>(c.compiles);
    if (n == 0.0)
        return;
    for (const char *layer :
         {"sched.lower", "sched.ddg", "sched.priority", "sched.schedule",
          "sched.verify", "region.formation", "analysis.liveness"})
        v[std::string(layer) + ".ms"] = {selfPer(s, layer, n),
                                         c.compiles};
    v["sched.lower.exit_copies"] = {c.exit_copies / n, c.compiles};
    v["sched.lower.renamed_defs"] = {c.renamed_defs / n, c.compiles};
    v["sched.ddg.edges"] = {c.ddg_edges / n, c.compiles};
    v["sched.schedule.ops"] = {c.ops / n, c.compiles};
    v["sched.schedule.speculated_ops"] = {c.speculated / n, c.compiles};
    v["sched.schedule.elided_ops"] = {c.elided / n, c.compiles};
    v["sched.verify.problems"] = {static_cast<double>(c.verify_problems),
                                  c.compiles};
    v["region.formation.regions"] = {c.regions / n, c.compiles};
    v["region.formation.blocks_added"] = {c.blocks_added / n, c.compiles};
    v["trace.coverage"] = {s.coverage, s.roots};
}

/** Module-level layers: ms per call plus the throughput ratios. */
void
moduleLayerValues(const SpanSummary &s, Values &v)
{
    const auto count = [&](const char *name) {
        const auto it = s.counts.find(name);
        return it == s.counts.end() ? 0.0
                                    : static_cast<double>(it->second);
    };
    for (const char *layer :
         {"ir.parse", "ir.verify", "ir.print", "workloads.profile"}) {
        const auto it = s.layers.find(layer);
        if (it != s.layers.end())
            v[std::string(layer) + ".ms"] = {selfPer(s, layer, 0),
                                             it->second.calls};
    }
    const auto parse = s.layers.find("ir.parse");
    if (parse != s.layers.end() && parse->second.self_ms > 0.0)
        v["ir.parse.mb_per_s"] = {
            count("ir.parse.bytes") / 1e6 / (parse->second.self_ms / 1e3),
            parse->second.calls};
    const auto profile = s.layers.find("workloads.profile");
    if (profile != s.layers.end() && profile->second.self_ms > 0.0)
        v["workloads.profile.mops_per_s"] = {
            count("workloads.profile.ops") / 1e6 /
                (profile->second.self_ms / 1e3),
            profile->second.calls};
    const auto eq = s.layers.find("vliw.equivalence");
    if (eq != s.layers.end())
        v["vliw.equivalence.ms"] = {selfPer(s, "vliw.equivalence", 0),
                                    eq->second.calls};
}

/** Latency, rate, quality and failure metrics of a finished run. */
void
endToEndValues(Window &w, const std::vector<double> &setup_s,
               const support::GeoMean &speedup,
               const support::GeoMean &expansion, const Ledger &ledger,
               Values &v)
{
    const uint64_t n = w.latency_ms.size();
    v["setup_s"] = {median(setup_s), setup_s.size()};
    v["compiles_per_s"] = {w.perSecond(), w.ok};
    if (n > 0) {
        v["latency_ms_p50"] = {chunkedPercentile(w.latency_ms, w.chunk, 50),
                               n};
        v["latency_ms_p99"] = {chunkedPercentile(w.latency_ms, w.chunk, 99),
                               n};
    }
    v["speedup_geomean"] = {speedup.value(), speedup.count()};
    v["code_expansion"] = {expansion.value(), expansion.count()};
    const double error_rate =
        ledger.attempted
            ? static_cast<double>(ledger.failed) / ledger.attempted
            : 1.0;
    // error_rate is 0 on a correct run, and a metric that reads 0 has
    // no relative spread, so BENCHMARK.json carries its complement.
    v["error_rate"] = {error_rate, ledger.attempted};
    v["success_rate"] = {1.0 - error_rate, ledger.attempted};
    v["peak_rss_mib"] = {peakRssKib() / 1024.0, 1};
}

// ---------------------------------------------------------------------
// sweep and taildup: batch compiles of the profiled proxies.

/** The sweep and taildup workloads. */
class BatchWorkload
{
  public:
    explicit BatchWorkload(bool sweep) : sweep_(sweep)
    {
        using sched::Heuristic;
        using sched::MachineModel;
        using sched::RegionScheme;
        if (sweep_) {
            for (RegionScheme scheme :
                 {RegionScheme::BasicBlock, RegionScheme::Slr,
                  RegionScheme::Superblock, RegionScheme::Treegion,
                  RegionScheme::TreegionTailDup,
                  RegionScheme::Hyperblock}) {
                for (Heuristic h : sched::kAllHeuristics)
                    configs_.push_back(
                        makeOptions(scheme, h, MachineModel::wide4U()));
            }
            pool_ = std::make_unique<support::ThreadPool>(2);
        } else {
            const Heuristic gw = Heuristic::GlobalWeight;
            configs_ = {
                makeOptions(RegionScheme::TreegionTailDup, gw,
                            MachineModel::wide4U()),
                makeOptions(RegionScheme::TreegionTailDup, gw,
                            MachineModel::wide8U()),
                makeOptions(RegionScheme::Superblock, gw,
                            MachineModel::wide4U()),
            };
        }
    }

    /** Generate, profile and print the proxies (taildup also parses). */
    void
    setup(uint64_t seed)
    {
        seed_ = seed;
        inputs_ = makeProxyInputs(seed);
        parsed_.clear();
        if (!sweep_) {
            for (const TextModule &t : inputs_)
                parsed_.push_back(parseVerified(t));
        }
    }

    std::string
    digest() const
    {
        uint64_t h = support::kFnvOffsetBasis;
        for (const TextModule &t : inputs_)
            h = support::fnv1a64(t.text, h);
        return support::strprintf("%016llx",
                                  static_cast<unsigned long long>(h));
    }

    Window
    window(double seconds, bool traced)
    {
        Window w;
        w.chunk = (kMinSamples + numJobs() - 1) / numJobs() * numJobs();
        if (expected_.empty()) {
            // The first pass records the expected outcomes; like
            // serve's lead-in it is unmeasured.
            Window warm;
            pass(warm);
        }
        const auto start = Clock::now();
        do {
            const auto pass_start = Clock::now();
            const uint64_t ok_before = w.ok;
            if (traced)
                tracedPass(w);
            else
                pass(w);
            w.slice_rates.push_back((w.ok - ok_before) /
                                    (msSince(pass_start) / 1e3));
        } while (msSince(start) < seconds * 1e3 ||
                 (!traced && w.latency_ms.size() < w.chunk));
        w.wall_ms = msSince(start);
        return w;
    }

    /**
     * Semantic check of every distinct (module, config) output:
     * compile it once more (the windows keep no results), verify the
     * schedule and run it against the sequential interpreter.
     */
    void
    gate(support::GeoMean &speedup, support::GeoMean &expansion)
    {
        const auto mods = passModules();
        std::vector<double> baseline;
        for (size_t m = 0; m < inputs_.size(); ++m)
            baseline.push_back(sched::estimateBaselineTime(
                inputFn(mods, m * configs_.size())));
        std::vector<std::string> failures(numJobs());
        std::vector<uint64_t> cycles(numJobs());
        auto check = [&](size_t j) {
            SpanScope root("gate", j + 1);
            const sched::PipelineOptions &o = configs_[j % configs_.size()];
            const ir::Function &input = inputFn(mods, j);
            sched::ClonedPipelineRun run =
                sched::runPipelineOnClone(input, o);
            const auto problems = sched::verifyFunctionSchedule(
                run.result.schedule, o.model.issue_width);
            // checkEquivalence takes the original by non-const
            // reference, and the inputs are shared across workers.
            ir::Function original = input.clone();
            vliw::EquivalenceReport report;
            {
                SpanScope span("vliw.equivalence");
                report = vliw::checkEquivalence(
                    original, run.fn, run.result.schedule,
                    gateMemory(inputs_[j / configs_.size()].mem_words,
                               seed_, j));
            }
            cycles[j] = report.vliw_cycles;
            const CompileOutcome c = outcomeOf(run.result);
            if (c.estimated_time != expected_[j].estimated_time ||
                c.scheduled_ops != expected_[j].scheduled_ops)
                failures[j] = "result differs from the timed passes";
            else if (!problems.empty())
                failures[j] = "schedule verifier: " + problems.front();
            else if (!report.ok)
                failures[j] = std::string("equivalence: ") +
                              (report.incomplete ? "incomplete: " : "") +
                              report.detail;
        };
        if (pool_)
            pool_->parallelFor(numJobs(), check);
        else
            for (size_t j = 0; j < numJobs(); ++j)
                check(j);
        for (size_t j = 0; j < numJobs(); ++j) {
            const ir::Function &fn = inputFn(mods, j);
            ++ledger_.attempted;
            eq_cycles_ += cycles[j];
            if (!failures[j].empty())
                ledger_.fail(label(j) + ": " + failures[j]);
            speedup.add(baseline[j / configs_.size()] /
                        expected_[j].estimated_time);
            expansion.add(static_cast<double>(expected_[j].scheduled_ops) /
                          fn.totalOps());
        }
    }

    Ledger ledger_;
    LayerCounts counts_;
    uint64_t eq_cycles_ = 0;
    bool sweep_;
    std::unique_ptr<support::ThreadPool> pool_;

    size_t
    numJobs() const
    {
        return inputs_.size() * configs_.size();
    }

  private:
    std::string
    label(size_t job) const
    {
        return inputs_[job / configs_.size()].name + "/" +
               configLabel(configs_[job % configs_.size()]);
    }

    /** Count one compile; later passes must repeat the first. */
    void
    account(size_t job, const CompileOutcome &c, size_t problems,
            double ms, Window &w)
    {
        ++ledger_.attempted;
        w.latency_ms.push_back(ms);
        if (expected_.size() <= job) {
            expected_.push_back(c);
        } else if (expected_[job].estimated_time != c.estimated_time ||
                   expected_[job].scheduled_ops != c.scheduled_ops) {
            ledger_.fail(label(job) + ": result differs between passes");
            return;
        }
        if (problems) {
            ledger_.fail(label(job) + support::strprintf(
                                          ": schedule verifier: %zu "
                                          "problems",
                                          problems));
            return;
        }
        ++w.ok;
    }

    /** This pass's parsed inputs: sweep parses in every pass,
     * taildup compiles what its set-up parsed (see inputFn). */
    std::vector<std::unique_ptr<ir::Module>>
    passModules() const
    {
        std::vector<std::unique_ptr<ir::Module>> mods;
        if (sweep_) {
            for (const TextModule &t : inputs_)
                mods.push_back(parseVerified(t));
        }
        return mods;
    }

    const ir::Function &
    inputFn(const std::vector<std::unique_ptr<ir::Module>> &mods,
            size_t job) const
    {
        const auto &mod = sweep_ ? mods[job / configs_.size()]
                                 : parsed_[job / configs_.size()];
        return *mod->functions().front();
    }

    void
    pass(Window &w)
    {
        const std::vector<std::unique_ptr<ir::Module>> mods = passModules();
        if (!sweep_) {
            for (size_t j = 0; j < numJobs(); ++j) {
                const sched::PipelineOptions &o =
                    configs_[j % configs_.size()];
                const sched::ClonedPipelineRun run =
                    sched::runPipelineOnClone(inputFn(mods, j), o);
                const size_t problems =
                    sched::verifyFunctionSchedule(run.result.schedule,
                                                  o.model.issue_width)
                        .size();
                account(j, outcomeOf(run.result), problems,
                        run.compile_ms, w);
            }
            return;
        }
        // One runPipelineParallel batch per profile variant keeps the
        // results held at once (and so peak RSS) to 8 x 24 compiles.
        const size_t batch = numJobs() / kProfileVariants;
        for (size_t first = 0; first < numJobs(); first += batch) {
            std::vector<sched::PipelineJob> jobs(batch);
            for (size_t k = 0; k < batch; ++k) {
                jobs[k].fn = &inputFn(mods, first + k);
                jobs[k].options = configs_[(first + k) % configs_.size()];
            }
            const std::vector<sched::PipelineJobResult> results =
                sched::runPipelineParallel(jobs, 0, pool_.get());
            std::vector<size_t> problems(batch);
            pool_->parallelFor(batch, [&](size_t k) {
                problems[k] = sched::verifyFunctionSchedule(
                                  results[k].result.schedule,
                                  jobs[k].options.model.issue_width)
                                  .size();
            });
            for (size_t k = 0; k < batch; ++k)
                account(first + k, outcomeOf(results[k].result),
                        problems[k], results[k].compile_ms, w);
        }
    }

    void
    tracedPass(Window &w)
    {
        std::vector<std::unique_ptr<ir::Module>> mods = passModules();
        const uint64_t first_id = traced_passes_++ * numJobs() + 1;
        auto traced = [&](size_t j) {
            SpanScope root("compile", first_id + j);
            return tracedPipeline(inputFn(mods, j),
                                  configs_[j % configs_.size()]);
        };
        std::vector<CompileOutcome> outcomes(numJobs());
        if (sweep_) {
            std::vector<std::future<CompileOutcome>> futures;
            for (size_t j = 0; j < numJobs(); ++j)
                futures.push_back(pool_->submit([&, j] {
                    return traced(j);
                }));
            for (size_t j = 0; j < numJobs(); ++j)
                outcomes[j] = futures[j].get();
        } else {
            for (size_t j = 0; j < numJobs(); ++j)
                outcomes[j] = traced(j);
        }
        for (size_t j = 0; j < numJobs(); ++j) {
            counts_.add(outcomes[j].counts);
            account(j, outcomes[j], outcomes[j].counts.verify_problems,
                    outcomes[j].counts.wall_ms, w);
        }
    }

    uint64_t seed_ = 0;
    uint64_t traced_passes_ = 0;
    std::vector<sched::PipelineOptions> configs_;
    std::vector<TextModule> inputs_;
    std::vector<std::unique_ptr<ir::Module>> parsed_;
    std::vector<CompileOutcome> expected_;
};

// ---------------------------------------------------------------------
// serve: an in-process treegiond under two closed-loop clients.

constexpr size_t kHitModules = 32;
constexpr size_t kMissBases = 32;
constexpr size_t kServeClients = 2;
constexpr size_t kServeWorkers = 2;
constexpr double kHitShare = 0.8;
/** Of the hits, the share resubmitted byte-identical (raw alias). */
constexpr double kRawShare = 0.55;
/** Small enough that misses evict each other over a run; the hot
 * hit set is touched far more often than a miss survives. */
constexpr size_t kCacheBytes = 96u << 10;
/** Unmeasured lead-in of each serve window (first-touch, wake-up
 * and CPU-frequency effects read as a slow first second). */
constexpr double kWarmupMs = 1000.0;

/** One answered or failed request, as a client saw it. */
struct ServeSample
{
    double ms = 0.0;
    double end_ms = 0.0;  ///< completion, from the window's start
    bool miss = false;
    uint32_t module = 0;
    bool ok = false;
    std::string cycles;  ///< the response's "cycles:" value
    std::string error;
};

/** The serve workload. */
class ServeWorkload
{
  public:
    ~ServeWorkload() { stopServer(); }

    void
    setup(uint64_t seed)
    {
        seed_ = seed;
        stopServer();
        profile_seed_ = mixSeed(seed, 77);
        hits_ = makeServeModules(1, kHitModules);
        bases_ = makeServeModules(2, kMissBases);
        name_at_.clear();
        for (const TextModule &t : bases_) {
            const size_t at = t.text.find("\nfunc @main ");
            if (at == std::string::npos)
                throw std::runtime_error(t.name + ": no @main");
            name_at_.push_back(at + 7);
        }
        socket_ = ".perfbench_out/serve-" +
                  std::to_string(::getpid()) + ".sock";
        ::unlink(socket_.c_str());
        service::ServerOptions so;
        so.unix_path = socket_;
        so.threads = kServeWorkers;
        so.cache_bytes = kCacheBytes;
        so.verify_hits = false;
        server_ = std::make_unique<service::Server>(so);
        std::string error;
        if (!server_->start(&error))
            throw std::runtime_error("server start: " + error);
        auto client = service::Client::connectUnix(socket_, &error);
        if (!client)
            throw std::runtime_error("connect: " + error);
        // Warm the hit set: every later resubmission is a cache hit.
        for (const TextModule &t : hits_) {
            service::Request req = request(t.text);
            service::Response resp;
            if (!client->call(req, &resp, &error) ||
                resp.status != service::status::kOk)
                throw std::runtime_error("warm-up " + t.name + ": " +
                                         error + resp.error);
        }
    }

    std::string
    digest() const
    {
        uint64_t h = support::fnv1a64(std::to_string(profile_seed_));
        for (const auto *set : {&hits_, &bases_}) {
            for (const TextModule &t : *set)
                h = support::fnv1a64(t.text, h);
        }
        return support::strprintf("%016llx",
                                   static_cast<unsigned long long>(h));
    }

    Window
    window(double seconds, bool traced)
    {
        if (traced)
            clearSpans();
        before_ = stats();
        std::vector<std::vector<ServeSample>> samples(kServeClients);
        std::atomic<size_t> done{0};
        const auto start = Clock::now();
        std::vector<std::thread> clients;
        for (size_t c = 0; c < kServeClients; ++c) {
            clients.emplace_back([&, c] {
                clientLoop(c, seconds, traced, start, done, samples[c]);
            });
        }
        for (std::thread &t : clients)
            t.join();
        Window w;
        w.wall_ms = msSince(start);
        after_ = stats();
        w.wall_ms -= kWarmupMs;
        std::vector<const ServeSample *> measured;
        for (const auto &per_client : samples) {
            for (const ServeSample &s : per_client) {
                ++ledger_.attempted;
                if (s.end_ms >= kWarmupMs)
                    measured.push_back(&s);
                if (!s.ok)
                    ledger_.fail("request: " + s.error);
                else
                    observed_[{s.miss, s.module}].insert(s.cycles);
            }
        }
        std::sort(measured.begin(), measured.end(),
                  [](const ServeSample *a, const ServeSample *b) {
                      return a->end_ms < b->end_ms;
                  });
        // Throughput per chunk of kMinSamples completions.
        double chunk_start = kWarmupMs;
        uint64_t chunk_ok = 0;
        for (size_t i = 0; i < measured.size(); ++i) {
            w.latency_ms.push_back(measured[i]->ms);
            chunk_ok += measured[i]->ok ? 1 : 0;
            if ((i + 1) % kMinSamples == 0) {
                w.slice_rates.push_back(
                    chunk_ok / ((measured[i]->end_ms - chunk_start) / 1e3));
                chunk_start = measured[i]->end_ms;
                w.ok += chunk_ok;
                chunk_ok = 0;
            }
        }
        w.ok += chunk_ok;
        return w;
    }

    /**
     * Compile every hit module and miss base locally and check each
     * response's cycles against it.
     */
    void
    gate(support::GeoMean &speedup, support::GeoMean &expansion)
    {
        const sched::PipelineOptions options{};
        expected_.clear();
        for (size_t i = 0; i < kHitModules + kMissBases; ++i) {
            const bool miss = i >= kHitModules;
            const size_t m = miss ? i - kHitModules : i;
            const TextModule t =
                miss ? TextModule{bases_[m].name, missText(m),
                                  bases_[m].mem_words}
                     : hits_[m];
            ++ledger_.attempted;
            SpanScope root("gate", i + 1);
            auto mod = parseVerified(t);
            ir::Function fn = profiled(*mod);
            sched::ClonedPipelineRun run =
                sched::runPipelineOnClone(fn, options);
            const auto problems = sched::verifyFunctionSchedule(
                run.result.schedule, options.model.issue_width);
            vliw::EquivalenceReport report;
            {
                SpanScope span("vliw.equivalence");
                report = vliw::checkEquivalence(
                    fn, run.fn, run.result.schedule,
                    gateMemory(mod->memWords(), seed_, i));
            }
            eq_cycles_ += report.vliw_cycles;
            const std::string cycles = support::strprintf(
                "%.17g", run.result.estimated_time);
            expected_[{miss, m}] = cycles;
            if (!problems.empty())
                ledger_.fail(t.name + ": schedule verifier: " +
                             problems.front());
            else if (!report.ok)
                ledger_.fail(t.name + ": equivalence: " + report.detail);
            for (const std::string &seen : observed_[{miss, m}]) {
                if (seen != cycles)
                    ledger_.fail(t.name + ": served cycles " + seen +
                                 " != local " + cycles);
            }
            speedup.add(sched::estimateBaselineTime(fn) /
                        run.result.estimated_time);
            expansion.add(
                static_cast<double>(scheduledOps(run.result.schedule)) /
                fn.totalOps());
        }
    }

    /**
     * Split the miss path: replay each miss base through the public
     * layer calls the server makes (parse, IR verify, canonical
     * print, cache key, profile, pipeline, schedule verify).
     */
    void
    replayMisses()
    {
        const service::Request req = request("");
        for (size_t b = 0; b < kMissBases; ++b) {
            SpanScope root("compile", b + 1);
            const TextModule t{bases_[b].name, missText(b),
                               bases_[b].mem_words};
            auto mod = parseVerified(t);
            const ir::Function &fn = *mod->functions().front();
            std::string canonical;
            {
                SpanScope span("ir.print");
                canonical = service::canonicalFunctionText(fn);
            }
            {
                SpanScope span("service.cache_key");
                service::makeCacheKey(canonical, req.configFingerprint());
            }
            ir::Function work = profiled(*mod);
            const CompileOutcome c =
                tracedPipeline(work, sched::PipelineOptions());
            counts_.add(c.counts);
            const std::string cycles =
                support::strprintf("%.17g", c.estimated_time);
            if (cycles != expected_[{true, b}])
                ledger_.fail(t.name + ": traced replay cycles " + cycles +
                             " != pipeline " + expected_[{true, b}]);
        }
    }

    /** Server-side per-layer numbers over the last window. */
    void
    serverValues(const Window &traced, Values &v) const
    {
        const auto delta = [&](const std::string &key, size_t at_b,
                               size_t at_a) {
            const double a = jsonNumber(after_, key, at_a);
            const double b = jsonNumber(before_, key, at_b);
            return std::max(a, 0.0) - std::max(b, 0.0);
        };
        const size_t cache_b = jsonFind(before_, "cache");
        const size_t cache_a = jsonFind(after_, "cache");
        const double hits = delta("hits", cache_b, cache_a);
        const double misses = delta("misses", cache_b, cache_a);
        const uint64_t n = traced.latency_ms.size();
        // A compile request makes one cache lookup (two only when an
        // aliased entry was evicted), so lookups count requests.
        if (hits + misses > 0) {
            v["service.cache.hit_ratio"] = {hits / (hits + misses), n};
            v["service.cache.raw_hit_ratio"] = {
                delta("cache_raw_hits", 0, 0) / (hits + misses), n};
        }
        v["service.cache.evictions"] = {delta("evictions", cache_b, cache_a),
                                        n};
        v["service.rejections"] = {delta("backpressure_rejections", 0, 0) +
                                       delta("mem_rejected", 0, 0),
                                   n};
        const auto hist = [&](const char *name, const char *field) {
            const size_t at = jsonFind(after_, name);
            return at == std::string::npos ? 0.0
                                           : jsonNumber(after_, field, at);
        };
        const double request_p50 = hist("request_ms", "p50");
        v["service.request.ms_p50"] = {request_p50, n};
        v["service.queue_wait.ms_p99"] = {hist("queue_wait_ms", "p99"), n};
        v["service.compile.ms_p50"] = {hist("compile_ms", "p50"), n};
        if (n > 0)
            v["service.client.overhead_ms_p50"] = {
                chunkedPercentile(traced.latency_ms, kMinSamples, 50) -
                    request_p50,
                n};
    }

    Ledger ledger_;
    LayerCounts counts_;
    uint64_t eq_cycles_ = 0;

  private:
    service::Request
    request(std::string text) const
    {
        service::Request req;
        req.options = options_;
        req.profile_seed = profile_seed_;
        req.module_text = std::move(text);
        return req;
    }

    /** Miss @p n: base n % kMissBases under a fresh function name. */
    std::string
    missText(uint64_t n) const
    {
        const TextModule &base = bases_[n % kMissBases];
        const size_t at = name_at_[n % kMissBases];
        return base.text.substr(0, at) + "m" + std::to_string(n) +
               base.text.substr(at + 4);
    }

    /** The module's function profiled the way the server profiles. */
    ir::Function
    profiled(const ir::Module &mod) const
    {
        ir::Function fn = [&] {
            SpanScope span("ir.clone");
            return mod.functions().front()->clone();
        }();
        const service::Request req = request("");
        workloads::ProfileOptions prof;
        prof.input_seed = req.profile_seed;
        prof.runs = req.profile_runs;
        SpanScope span("workloads.profile");
        countWork("workloads.profile.ops",
                  workloads::profileFunction(fn, mod.memWords(), prof)
                      .total_ops);
        return fn;
    }

    void
    clientLoop(size_t c, double seconds, bool traced,
               Clock::time_point start, std::atomic<size_t> &done,
               std::vector<ServeSample> &out)
    {
        std::string error;
        auto client = service::Client::connectUnix(socket_, &error);
        if (!client) {
            ServeSample s;
            s.error = "connect: " + error;
            out.push_back(std::move(s));
            return;
        }
        support::Rng rng(mixSeed(seed_, 100 + 2 * c + (traced ? 1 : 0)));
        while (msSince(start) < kWarmupMs + seconds * 1e3 ||
               (!traced && done.load() < kMinSamples)) {
            ServeSample s;
            service::Request req = request("");
            if (rng.nextDouble() < kHitShare) {
                s.module = static_cast<uint32_t>(rng.nextBelow(kHitModules));
                req.module_text = hits_[s.module].text;
                if (rng.nextDouble() >= kRawShare) {
                    // Same function, new bytes: hits through the
                    // canonical key, not the raw-text alias.
                    req.module_text.insert(
                        0, "# variant " +
                               std::to_string(next_variant_++) + "\n");
                }
            } else {
                const uint64_t n = next_miss_++;
                s.miss = true;
                s.module = static_cast<uint32_t>(n % kMissBases);
                req.module_text = missText(n);
            }
            service::Response resp;
            const auto t0 = Clock::now();
            bool sent;
            {
                SpanScope span("service.client.call", ++next_request_);
                sent = client->call(req, &resp, &error);
            }
            s.ms = msSince(t0);
            s.end_ms = msSince(start);
            if (s.end_ms >= kWarmupMs)
                ++done;
            if (!sent) {
                s.error = "transport: " + error;
            } else if (resp.status != service::status::kOk) {
                s.error = resp.status + ": " + resp.error;
            } else if (resp.body.find("\nverify: ok\n") ==
                       std::string::npos) {
                s.error = "verify not ok";
            } else {
                const size_t at = resp.body.find("cycles: ");
                const size_t end = resp.body.find('\n', at);
                if (at == std::string::npos || end == std::string::npos) {
                    s.error = "no cycles line";
                } else {
                    s.cycles = resp.body.substr(at + 8, end - at - 8);
                    s.ok = true;
                }
            }
            out.push_back(std::move(s));
            if (!sent)
                return;
        }
    }

    std::string
    stats() const
    {
        std::string error;
        auto client = service::Client::connectUnix(socket_, &error);
        service::Request req;
        req.verb = "stats";
        service::Response resp;
        if (!client || !client->call(req, &resp, &error))
            throw std::runtime_error("stats: " + error);
        return resp.body;
    }

    void
    stopServer()
    {
        if (!server_)
            return;
        server_->requestStop();
        server_->waitUntilStopped();
        server_.reset();
        ::unlink(socket_.c_str());
    }

    uint64_t seed_ = 0;
    uint64_t profile_seed_ = 0;
    const std::string options_ = sched::encodePipelineOptions({});
    std::vector<TextModule> hits_;
    std::vector<TextModule> bases_;
    std::vector<size_t> name_at_;  ///< offset of "main" in each base
    std::string socket_;
    std::unique_ptr<service::Server> server_;
    std::atomic<uint64_t> next_miss_{0};
    std::atomic<uint64_t> next_variant_{0};
    std::atomic<uint64_t> next_request_{0};
    std::string before_, after_;
    std::map<std::pair<bool, size_t>, std::set<std::string>> observed_;
    std::map<std::pair<bool, size_t>, std::string> expected_;
};

// ---------------------------------------------------------------------

const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},
    {"compiles_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p99", "ms"},
    {"speedup_geomean", "x"},
    {"code_expansion", "x"},
    {"success_rate", "ratio"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"sched.lower.ms", "ms"},
    {"sched.lower.exit_copies", "count"},
    {"sched.lower.renamed_defs", "count"},
    {"sched.ddg.ms", "ms"},
    {"sched.ddg.edges", "count"},
    {"sched.priority.ms", "ms"},
    {"sched.schedule.ms", "ms"},
    {"sched.schedule.ops", "count"},
    {"sched.schedule.speculated_ops", "count"},
    {"sched.schedule.elided_ops", "count"},
    {"sched.verify.ms", "ms"},
    {"sched.verify.problems", "count"},
    {"region.formation.ms", "ms"},
    {"region.formation.regions", "count"},
    {"region.formation.blocks_added", "count"},
    {"analysis.liveness.ms", "ms"},
    {"ir.parse.ms", "ms"},
    {"ir.parse.mb_per_s", "MB/s"},
    {"ir.verify.ms", "ms"},
    {"ir.print.ms", "ms"},
    {"workloads.profile.ms", "ms"},
    {"workloads.profile.mops_per_s", "Mops/s"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.raw_hit_ratio", "ratio"},
    {"service.cache.evictions", "count"},
    {"service.client.overhead_ms_p50", "ms"},
    {"service.request.ms_p50", "ms"},
    {"service.queue_wait.ms_p99", "ms"},
    {"service.compile.ms_p50", "ms"},
    {"service.rejections", "count"},
    {"support.pool.busy_ratio", "ratio"},
    {"vliw.equivalence.ms", "ms"},
    {"vliw.equivalence.cycles", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

/** The listed metrics in list order; a layer that did not run is 0. */
std::vector<Metric>
ordered(const std::vector<std::pair<const char *, const char *>> &names,
        Values &values)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : names) {
        const auto it = values.find(name);
        out.push_back({name, it == values.end() ? 0.0 : it->second.first,
                       unit,
                       it == values.end() ? 0 : it->second.second});
        if (it != values.end())
            values.erase(it);
    }
    return out;
}

/**
 * The run protocol shared by every workload: set up kSetupReps times
 * (inputs must repeat byte for byte), measure, optionally trace, then
 * gate.
 */
template <typename W>
RunOutcome
runProtocol(W &w, uint64_t seed, double seconds, bool trace,
            const std::string &span_path, Values &v)
{
    RunOutcome out;
    setSpanRecording(trace);
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto start = Clock::now();
        w.setup(seed);
        setup_s.push_back(msSince(start) / 1e3);
        if (rep == 0)
            out.input_digest = w.digest();
        else if (w.digest() != out.input_digest)
            w.ledger_.fail("inputs differ between set-ups of one seed");
    }
    setSpanRecording(false);
    Window untraced = w.window(trace ? seconds / 2 : seconds, false);
    if (trace) {
        setSpanRecording(true);
        const Window traced = w.window(seconds / 2, true);
        v["trace.overhead_ratio"] = {
            traced.perSecond() > 0 ? untraced.perSecond() /
                                         traced.perSecond()
                                   : 0.0,
            traced.ok};
        if constexpr (std::is_same_v<W, ServeWorkload>)
            w.serverValues(traced, v);
        else if (w.sweep_)
            v["support.pool.busy_ratio"] = {
                w.counts_.wall_ms /
                    (w.pool_->numThreads() * traced.wall_ms),
                w.counts_.compiles};
    }
    support::GeoMean speedup, expansion;
    w.gate(speedup, expansion);
    if (trace) {
        if constexpr (std::is_same_v<W, ServeWorkload>)
            w.replayMisses();
        setSpanRecording(false);
        const SpanSummary summary = summarizeSpans("compile");
        compileLayerValues(summary, w.counts_, v);
        moduleLayerValues(summary, v);
        const auto eq = summary.layers.find("vliw.equivalence");
        if (eq != summary.layers.end() && eq->second.calls > 0)
            v["vliw.equivalence.cycles"] = {
                static_cast<double>(w.eq_cycles_) / eq->second.calls,
                eq->second.calls};
        v["trace.min_coverage"] = {summary.min_coverage, summary.roots};
        if (!span_path.empty() && !writeSpansJsonl(span_path))
            w.ledger_.fail("cannot write spans to " + span_path);
    }
    endToEndValues(untraced, setup_s, speedup, expansion, w.ledger_, v);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"sweep", "taildup",
                                                   "serve"};
    return names;
}

RunOutcome
runWorkload(const std::string &name, uint64_t seed, double seconds,
            bool trace, const std::string &span_path)
{
    Values v;
    RunOutcome out;
    Ledger *ledger = nullptr;
    std::unique_ptr<BatchWorkload> batch;
    std::unique_ptr<ServeWorkload> serve;
    try {
        if (name == "serve") {
            serve = std::make_unique<ServeWorkload>();
            ledger = &serve->ledger_;
            out = runProtocol(*serve, seed, seconds, trace, span_path, v);
        } else {
            batch = std::make_unique<BatchWorkload>(name == "sweep");
            ledger = &batch->ledger_;
            out = runProtocol(*batch, seed, seconds, trace, span_path, v);
        }
    } catch (const std::exception &e) {
        ledger->fail(std::string("aborted: ") + e.what());
        ledger->attempted = std::max(ledger->attempted, ledger->failed);
    }
    out.attempted = ledger->attempted;
    out.failed = ledger->failed;
    out.problems = ledger->problems;
    out.end_to_end = ordered(kEndToEnd, v);
    out.per_layer = ordered(kPerLayer, v);
    for (const auto &[metric, value] : v)
        out.extra.push_back({metric, value.first, "", value.second});
    return out;
}

std::string
inputDigest(const std::string &name, uint64_t seed)
{
    if (name == "serve") {
        ServeWorkload w;
        w.setup(seed);
        return w.digest();
    }
    BatchWorkload w(name == "sweep");
    w.setup(seed);
    return w.digest();
}

} // namespace perfbench
