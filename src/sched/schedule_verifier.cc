#include "sched/schedule_verifier.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "support/arena.h"
#include "support/spans.h"
#include "support/string_utils.h"

namespace treegion::sched {

using support::strprintf;

namespace {

/**
 * The writers of every register: one CSR table per register class,
 * indexed by register number, each list in schedule order.
 */
class WriterTable
{
  public:
    WriterTable(const std::vector<ScheduledOp> &ops, support::Arena &arena)
    {
        for (const ScheduledOp &sop : ops) {
            for (const ir::Reg &d : sop.op.dsts)
                regs_[cls(d)] = std::max(regs_[cls(d)], size_t{d.idx} + 1);
        }
        uint32_t *fill[3] = {};
        for (size_t c = 0; c < 3; ++c)
            off_[c] = arena.allocZeroed<uint32_t>(regs_[c] + 1);
        for (const ScheduledOp &sop : ops) {
            for (const ir::Reg &d : sop.op.dsts)
                ++off_[cls(d)][d.idx + 1];
        }
        for (size_t c = 0; c < 3; ++c) {
            for (size_t r = 0; r < regs_[c]; ++r)
                off_[c][r + 1] += off_[c][r];
            list_[c] = arena.allocArray<uint32_t>(off_[c][regs_[c]]);
            fill[c] = arena.allocArray<uint32_t>(regs_[c] + 1);
            std::copy(off_[c], off_[c] + regs_[c] + 1, fill[c]);
        }
        for (uint32_t k = 0; k < ops.size(); ++k) {
            for (const ir::Reg &d : ops[k].op.dsts)
                list_[cls(d)][fill[cls(d)][d.idx]++] = k;
        }
    }

    /** @return indices of the ops writing @p r, in schedule order. */
    support::Span<uint32_t>
    writers(const ir::Reg &r) const
    {
        const size_t c = cls(r);
        if (r.idx >= regs_[c])
            return {};
        return {list_[c] + off_[c][r.idx],
                off_[c][r.idx + 1] - off_[c][r.idx]};
    }

  private:
    static size_t cls(const ir::Reg &r) { return static_cast<size_t>(r.cls); }

    size_t regs_[3] = {};
    uint32_t *off_[3] = {};
    uint32_t *list_[3] = {};
};

/**
 * Path reachability between region blocks: a dense numbering of every
 * block the memory-order check can meet, in-region successors as CSR
 * over it, and one reachability bitset per block, filled on first use.
 */
class BlockReach
{
  public:
    BlockReach(const RegionSchedule &sched,
               const support::ArenaVector<uint32_t> &mem_ops,
               support::Arena &arena)
        : ids_(arena), stack_(arena)
    {
        for (const uint32_t k : mem_ops)
            ids_.push_back(sched.ops[k].home);
        for (const auto &[from, succs] : sched.succs_in_region) {
            ids_.push_back(from);
            for (const ir::BlockId to : succs)
                ids_.push_back(to);
        }
        std::sort(ids_.begin(), ids_.end());
        ids_.resize(static_cast<size_t>(
            std::unique(ids_.begin(), ids_.end()) - ids_.begin()));
        const size_t nb = ids_.size();

        succ_off_ = arena.allocZeroed<uint32_t>(nb + 1);
        for (const auto &[from, succs] : sched.succs_in_region) {
            succ_off_[indexOf(from) + 1] +=
                static_cast<uint32_t>(succs.size());
        }
        for (size_t b = 0; b < nb; ++b)
            succ_off_[b + 1] += succ_off_[b];
        succ_list_ = arena.allocArray<uint32_t>(succ_off_[nb]);
        for (const auto &[from, succs] : sched.succs_in_region) {
            uint32_t at = succ_off_[indexOf(from)];
            for (const ir::BlockId to : succs)
                succ_list_[at++] = indexOf(to);
        }

        words_ = (nb + 63) / 64;
        rows_ = arena.allocZeroed<uint64_t>(nb * words_);
        row_done_ = arena.allocZeroed<uint8_t>(nb);
    }

    /** @return the dense index of @p id, which must be numbered. */
    uint32_t
    indexOf(ir::BlockId id) const
    {
        return static_cast<uint32_t>(
            std::lower_bound(ids_.begin(), ids_.end(), id) -
            ids_.begin());
    }

    /** Does a path of in-region edges lead from @p from to @p to? */
    bool
    reaches(uint32_t from, uint32_t to)
    {
        uint64_t *row = rows_ + size_t{from} * words_;
        if (!row_done_[from]) {
            row_done_[from] = 1;
            stack_.clear();
            stack_.push_back(from);
            while (!stack_.empty()) {
                const uint32_t cur = stack_.back();
                stack_.pop_back();
                uint64_t &word = row[cur / 64];
                const uint64_t bit = uint64_t{1} << (cur % 64);
                if (word & bit)
                    continue;
                word |= bit;
                for (uint32_t k = succ_off_[cur]; k < succ_off_[cur + 1];
                     ++k) {
                    stack_.push_back(succ_list_[k]);
                }
            }
        }
        return (row[to / 64] >> (to % 64)) & 1;
    }

  private:
    support::ArenaVector<ir::BlockId> ids_;
    uint32_t *succ_off_ = nullptr;
    uint32_t *succ_list_ = nullptr;
    size_t words_ = 0;
    uint64_t *rows_ = nullptr;
    uint8_t *row_done_ = nullptr;
    support::ArenaVector<uint32_t> stack_;
};

/** Scratch for one verifySchedule call; reset on entry. */
support::Arena &
verifierArena()
{
    static thread_local support::Arena arena;
    return arena;
}

} // namespace

std::vector<std::string>
verifySchedule(const RegionSchedule &sched, int issue_width)
{
    std::vector<std::string> problems;
    auto err = [&](std::string msg) {
        problems.push_back(std::move(msg));
    };

    support::Arena &arena = verifierArena();
    arena.reset();

    // Placement: bounds and slot uniqueness. In-range placements are
    // marked in a cycle x slot grid (rows capped so a bogus length
    // cannot blow it up); the rest, only ever seen in broken
    // schedules, are compared pairwise.
    const int64_t rows = std::clamp<int64_t>(
        sched.length, 0, 64 + 16 * static_cast<int64_t>(sched.ops.size()));
    const int64_t width = std::max(issue_width, 0);
    uint8_t *grid = arena.allocZeroed<uint8_t>(
        static_cast<size_t>(rows * width));
    support::ArenaVector<std::pair<int, int>> off_grid(arena);
    for (const ScheduledOp &sop : sched.ops) {
        if (sop.cycle < 0 || sop.cycle >= sched.length) {
            err(strprintf("op '%s' at cycle %d outside schedule "
                          "length %d", sop.op.str().c_str(), sop.cycle,
                          sched.length));
        }
        if (sop.slot < 0 || sop.slot >= issue_width) {
            err(strprintf("op '%s' in slot %d on a %d-wide machine",
                          sop.op.str().c_str(), sop.slot, issue_width));
        }
        bool shared = false;
        if (sop.cycle >= 0 && sop.cycle < rows && sop.slot >= 0 &&
            sop.slot < width) {
            uint8_t &cell = grid[sop.cycle * width + sop.slot];
            shared = cell != 0;
            cell = 1;
        } else {
            const std::pair<int, int> at{sop.cycle, sop.slot};
            shared = std::find(off_grid.begin(), off_grid.end(), at) !=
                     off_grid.end();
            off_grid.push_back(at);
        }
        if (shared) {
            err(strprintf("two ops share cycle %d slot %d", sop.cycle,
                          sop.slot));
        }
    }

    // Dataflow: readers wait out every writer's latency. Predicates
    // may have several writers (PSET plus and-type compares); readers
    // must follow all of them.
    const WriterTable writers(sched.ops, arena);
    for (size_t k = 0; k < sched.ops.size(); ++k) {
        const ScheduledOp &sop = sched.ops[k];
        sop.op.forEachUsedReg([&](const ir::Reg &use) {
            const auto list = writers.writers(use);
            if (list.empty()) {
                // GPRs and BTRs may be live into the region, but
                // every predicate is synthesized inside it (path
                // predicates, guards, branch conditions); a predicate
                // read with no in-schedule writer is undefined.
                if (use.cls == ir::RegClass::Pred) {
                    const bool is_guard =
                        sop.op.guard && *sop.op.guard == use;
                    err(strprintf(
                        "'%s' reads %s %s which no scheduled op "
                        "defines",
                        sop.op.str().c_str(),
                        is_guard ? "guard predicate" : "predicate",
                        use.str().c_str()));
                }
                return;  // live-in register
            }
            for (const uint32_t wi : list) {
                if (wi == k)
                    continue;
                const ScheduledOp &w = sched.ops[wi];
                if (sop.cycle < w.cycle + w.op.latency()) {
                    err(strprintf(
                        "'%s' (cycle %d) reads %s before '%s' "
                        "(cycle %d, latency %d) completes",
                        sop.op.str().c_str(), sop.cycle,
                        use.str().c_str(), w.op.str().c_str(),
                        w.cycle, w.op.latency()));
                }
            }
        });
    }

    // Memory program order along a path. Two memory ops whose home
    // blocks lie on one root-to-exit path both execute in a single
    // region traversal, so when either is a store they must issue in
    // program order (the DDG's 0-latency slot-ordered edges); a store
    // reordered past a dependent load would silently read or clobber
    // the wrong value. Reachability through succs_in_region decides
    // "same path"; within one home block, op ids ascend in program
    // order (lowering emits blocks front to back with fresh ids).
    support::ArenaVector<uint32_t> mem_ops(arena);
    for (uint32_t k = 0; k < sched.ops.size(); ++k) {
        if (sched.ops[k].op.isMemory())
            mem_ops.push_back(k);
    }
    if (mem_ops.size() >= 2) {
        BlockReach reach(sched, mem_ops, arena);
        uint32_t *home_bi = arena.allocArray<uint32_t>(mem_ops.size());
        for (size_t i = 0; i < mem_ops.size(); ++i)
            home_bi[i] = reach.indexOf(sched.ops[mem_ops[i]].home);
        auto slotBefore = [](const ScheduledOp *a,
                             const ScheduledOp *b) {
            return a->cycle < b->cycle ||
                   (a->cycle == b->cycle && a->slot < b->slot);
        };
        for (size_t i = 0; i < mem_ops.size(); ++i) {
            for (size_t j = i + 1; j < mem_ops.size(); ++j) {
                const ScheduledOp *a = &sched.ops[mem_ops[i]];
                const ScheduledOp *b = &sched.ops[mem_ops[j]];
                if (!a->op.isStore() && !b->op.isStore())
                    continue;
                const ScheduledOp *first = nullptr;
                const ScheduledOp *second = nullptr;
                if (a->home == b->home) {
                    first = a->op.id < b->op.id ? a : b;
                    second = first == a ? b : a;
                } else if (reach.reaches(home_bi[i], home_bi[j])) {
                    first = a;
                    second = b;
                } else if (reach.reaches(home_bi[j], home_bi[i])) {
                    first = b;
                    second = a;
                } else {
                    continue;  // disjoint paths: never both executed
                }
                if (!slotBefore(first, second)) {
                    err(strprintf(
                        "memory order violated on a path: '%s' "
                        "(cycle %d slot %d) must issue before '%s' "
                        "(cycle %d slot %d)",
                        first->op.str().c_str(), first->cycle,
                        first->slot, second->op.str().c_str(),
                        second->cycle, second->slot));
                }
            }
        }
    }

    // Exit records point at branches and carry matching cycles.
    for (const ScheduledExit &exit : sched.exits) {
        if (exit.op_index == ScheduledExit::kFallthrough)
            continue;  // no branch op to cross-check
        if (exit.op_index >= sched.ops.size()) {
            err("exit op_index out of range");
            continue;
        }
        const ScheduledOp &branch = sched.ops[exit.op_index];
        if (!branch.op.isBranch())
            err(strprintf("exit points at non-branch '%s'",
                          branch.op.str().c_str()));
        if (exit.cycle != branch.cycle)
            err(strprintf("exit cycle %d != branch cycle %d",
                          exit.cycle, branch.cycle));
    }
    return problems;
}

std::vector<std::string>
verifyFunctionSchedule(const FunctionSchedule &sched, int issue_width)
{
    support::SpanScope span("verify", support::SpanScope::Root::IfEnabled);
    std::vector<std::string> problems;
    for (const auto &[root, rs] : sched.regions) {
        for (std::string &p : verifySchedule(rs, issue_width)) {
            problems.push_back(
                strprintf("region bb%u: %s", root, p.c_str()));
        }
    }
    return problems;
}

} // namespace treegion::sched
