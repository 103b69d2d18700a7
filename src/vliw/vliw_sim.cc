#include "vliw/vliw_sim.h"

#include <algorithm>
#include <unordered_map>

#include "support/logging.h"
#include "vliw/machine_state.h"
#include "vliw/op_semantics.h"

namespace treegion::vliw {

using ir::BlockId;
using ir::Op;
using ir::Opcode;
using sched::RegionSchedule;
using sched::ScheduledExit;
using sched::ScheduledOp;

namespace {

/** A register write in flight. */
struct PendingWrite
{
    uint64_t ready;  ///< first cycle (within the region) it is visible
    ir::Reg reg;
    int64_t value;
};

/** Rows of a region schedule, precomputed. */
struct RegionRows
{
    std::vector<std::vector<const ScheduledOp *>> rows;
    /** exits by (op index in RegionSchedule::ops). */
    std::unordered_map<size_t, std::vector<const ScheduledExit *>> exits;
};

RegionRows
buildRows(const RegionSchedule &rs)
{
    RegionRows out;
    out.rows.resize(static_cast<size_t>(rs.length));
    for (const ScheduledOp &sop : rs.ops)
        out.rows[static_cast<size_t>(sop.cycle)].push_back(&sop);
    for (auto &row : out.rows) {
        std::sort(row.begin(), row.end(),
                  [](const ScheduledOp *a, const ScheduledOp *b) {
                      return a->slot < b->slot;
                  });
    }
    for (const ScheduledExit &exit : rs.exits)
        out.exits[exit.op_index].push_back(&exit);
    return out;
}

/**
 * Map a fired branch to its exit record, or nullptr for an MWBR case
 * edge that falls through internally (target == kNoBlock).
 */
const ScheduledExit *
resolveExit(const RegionRows &rr, size_t op_index, const Op &op,
            size_t slot)
{
    auto eit = rr.exits.find(op_index);
    if (op.opcode == Opcode::MWBR) {
        if (op.targets[slot] == ir::kNoBlock)
            return nullptr;  // internal fall-through case edge
        TG_ASSERT(eit != rr.exits.end());
        for (const ScheduledExit *cand : eit->second) {
            if (cand->target_slot == slot)
                return cand;
        }
        TG_PANIC("MWBR slot %zu has no exit record", slot);
    }
    TG_ASSERT(eit != rr.exits.end());
    return eit->second.front();
}

} // namespace

VliwResult
runScheduled(const ir::Function &fn, const sched::FunctionSchedule &sched,
             std::vector<int64_t> memory, const VliwOptions &options)
{
    MachineState state(fn.numGprs(), fn.numPreds(), std::move(memory));
    VliwResult result;

    // Precompute rows per region.
    std::unordered_map<BlockId, RegionRows> rows_by_root;
    for (const auto &[root, rs] : sched.regions)
        rows_by_root.emplace(root, buildRows(rs));

    // Index of each scheduled op within its region's op vector, for
    // exit lookup.
    std::unordered_map<BlockId, std::unordered_map<const ScheduledOp *,
                                                   size_t>>
        op_indices;
    for (const auto &[root, rs] : sched.regions) {
        auto &map = op_indices[root];
        for (size_t i = 0; i < rs.ops.size(); ++i)
            map.emplace(&rs.ops[i], i);
    }

    BlockId cur = sched.entry;
    std::vector<PendingWrite> pending;

    auto readReg = [&](ir::Reg r) { return state.readReg(r); };

    auto commit = [&](uint64_t upto) {
        size_t kept = 0;
        for (PendingWrite &w : pending) {
            if (w.ready <= upto)
                state.writeReg(w.reg, w.value);
            else
                pending[kept++] = w;
        }
        pending.resize(kept);
    };

    while (result.cycles < options.max_cycles) {
        auto sit = sched.regions.find(cur);
        if (sit == sched.regions.end())
            TG_PANIC("no region schedule rooted at bb%u", cur);
        const RegionSchedule &rs = sit->second;
        const RegionRows &rr = rows_by_root.at(cur);
        result.trace.push_back(cur);
        ++result.regions_executed;
        pending.clear();

        const ScheduledExit *fired = nullptr;
        for (uint64_t cyc = 0;
             cyc < static_cast<uint64_t>(rs.length) && !fired; ++cyc) {
            commit(cyc);
            ++result.cycles;
            if (result.cycles >= options.max_cycles)
                break;

            int64_t ret_value = 0;
            for (const ScheduledOp *sop : rr.rows[cyc]) {
                const Op &op = sop->op;
                ++result.ops_executed;
                if (!op.isBranch()) {
                    sem::execDataOp(
                        sem::IrOp(op), readReg, state,
                        [&](ir::Reg dst, int64_t value, int delay) {
                            pending.push_back(
                                {cyc + static_cast<uint64_t>(delay),
                                 dst, value});
                        });
                    continue;
                }
                const sem::BranchOutcome out =
                    sem::evalBranch(sem::IrOp(op), readReg);
                if (out.kind ==
                    sem::BranchOutcome::Kind::kMalformedMwbr) {
                    TG_PANIC("MWBR selector matches no case");
                }
                if (out.kind != sem::BranchOutcome::Kind::kFire)
                    continue;
                const size_t idx = op_indices.at(cur).at(sop);
                const ScheduledExit *exit =
                    resolveExit(rr, idx, op, out.slot);
                if (!exit)
                    continue;  // internal MWBR fall-through
                if (out.is_ret)
                    ret_value = out.ret_value;
                TG_ASSERT(!fired && "two exits fired in one cycle");
                fired = exit;
            }

            if (fired) {
                // Writes reaching visibility next cycle are
                // architectural at the exit boundary.
                commit(cyc + 1);
                // Reconciliation copies: parallel read, then write.
                result.copies_applied += sem::applyExitCopies(
                    fired->copies, readReg,
                    [&](ir::Reg dst, int64_t value) {
                        state.writeReg(dst, value);
                    });

                if (fired->is_ret) {
                    result.completed = true;
                    result.ret_value = ret_value;
                    result.memory = state.memory();
                    return result;
                }
                cur = fired->target;
            }
        }
        if (!fired && result.cycles < options.max_cycles)
            TG_PANIC("region bb%u fell through without an exit",
                     rs.root);
    }

    result.memory = state.memory();
    return result;  // cycle limit hit; completed stays false
}

} // namespace treegion::vliw
