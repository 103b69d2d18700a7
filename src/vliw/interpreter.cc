#include "vliw/interpreter.h"

#include <algorithm>

#include "support/logging.h"
#include "vliw/machine_state.h"
#include "vliw/op_semantics.h"

namespace treegion::vliw {

using ir::BlockId;

SequentialProgram::SequentialProgram(const ir::Function &fn)
{
    const uint32_t pred_base = kGprBase + fn.numGprs();
    num_slots_ = pred_base + fn.numPreds();
    auto slotOf = [&](ir::Reg r) -> uint32_t {
        switch (r.cls) {
          case ir::RegClass::Gpr:
            TG_ASSERT(r.idx < fn.numGprs());
            return kGprBase + r.idx;
          case ir::RegClass::Pred:
            TG_ASSERT(r.idx < fn.numPreds());
            return pred_base + r.idx;
          case ir::RegClass::Btr:
            break;
        }
        return kZeroSlot;  // BTRs read as 0
    };
    auto decode = [&](const ir::Op &op, DecodedOp &out) {
        out.code = op.opcode;
        out.kind = op.cmp;
        out.lat = static_cast<uint8_t>(op.latency());
        TG_ASSERT(op.srcs.size() <= 3 && op.dsts.size() <= 2);
        out.num_srcs = static_cast<uint8_t>(op.srcs.size());
        for (size_t i = 0; i < op.srcs.size(); ++i) {
            if (op.srcs[i].isImm())
                out.imms[i] = op.srcs[i].imm;
            else
                out.slots[i] = slotOf(op.srcs[i].reg);
        }
        out.num_dsts = static_cast<uint8_t>(op.dsts.size());
        for (size_t i = 0; i < op.dsts.size(); ++i) {
            const ir::Reg d = op.dsts[i];
            out.dsts[i] =
                d.cls == ir::RegClass::Btr ? kSinkSlot : slotOf(d);
            if (d.cls == ir::RegClass::Pred)
                out.pred_dsts |= static_cast<uint8_t>(1u << i);
        }
        if (op.guard)
            out.guard = slotOf(*op.guard);
    };

    // Dense numbering: live blocks in id order.
    std::vector<uint32_t> dense(fn.numBlockIds(), kNoTarget);
    size_t body_ops = 0;
    fn.forEachBlock([&](const ir::BasicBlock &b) {
        dense[b.id()] = static_cast<uint32_t>(ids_.size());
        ids_.push_back(b.id());
        body_ops += b.ops().empty() ? 0 : b.ops().size() - 1;
    });
    ops_.reserve(body_ops);
    TG_ASSERT(fn.entry() < dense.size());
    entry_ = dense[fn.entry()];
    TG_ASSERT(entry_ != kNoTarget);

    blocks_.resize(ids_.size());
    for (size_t d = 0; d < ids_.size(); ++d) {
        const ir::BasicBlock &b = fn.block(ids_[d]);
        Block &out = blocks_[d];
        const size_t body = b.ops().empty() ? 0 : b.ops().size() - 1;
        out.first_op = static_cast<uint32_t>(ops_.size());
        out.num_ops = static_cast<uint32_t>(body);
        for (size_t i = 0; i < body; ++i)
            decode(b.ops()[i], ops_.emplace_back());
        out.edge_base = static_cast<uint32_t>(targets_.size());
        if (!b.hasTerminator())
            continue;  // exec() panics if control reaches it
        const ir::Op &term = b.terminator();
        decode(term, out.term);
        out.term.is_branch = true;
        out.term.cases = term.caseValues;
        out.num_targets = static_cast<uint32_t>(term.targets.size());
        for (const BlockId t : term.targets)
            targets_.push_back(t < dense.size() ? dense[t] : kNoTarget);
    }
}

ExecutionCounts
SequentialProgram::zeroCounts() const
{
    return {std::vector<uint64_t>(blocks_.size(), 0),
            std::vector<uint64_t>(targets_.size(), 0)};
}

ExecResult
SequentialProgram::exec(std::vector<int64_t> &memory,
                        const InterpOptions &options, bool trace,
                        ExecutionCounts *counts) const
{
    ExecResult result;
    std::vector<int64_t> regs(num_slots_, 0);
    // The machine state's register files stay empty; it supplies the
    // dismissible memory all engines share, and gives the image back.
    MachineState mem(0, 0, std::move(memory));
    // Sequential execution applies writes immediately; the MultiOp
    // visibility delay only matters to the schedule simulators.
    auto read = [&](uint32_t slot) { return regs[slot]; };
    auto write = [&](Dst dst, int64_t value, int) {
        regs[dst.slot] = dst.pred ? value != 0 : value;
    };
    // Past max_ops only body-less blocks keep a run going, and
    // terminators change no state, so entering more of them than
    // there are blocks means the run cycles forever.
    const uint64_t spin_limit =
        options.max_ops +
        std::min<uint64_t>(blocks_.size(), UINT64_MAX - options.max_ops);

    uint64_t ops = 0;
    uint32_t cur = entry_;
    for (;;) {
        const Block &b = blocks_[cur];
        if (trace)
            result.trace.push_back(ids_[cur]);
        if (counts)
            ++counts->block[cur];

        // Body ops. The limit stops the run at the first body op that
        // would be op number max_ops + 1, counting that op.
        const uint64_t room =
            ops < options.max_ops ? options.max_ops - ops : 0;
        const uint32_t n = b.num_ops <= room
                               ? b.num_ops
                               : static_cast<uint32_t>(room);
        const DecodedOp *op = ops_.data() + b.first_op;
        for (uint32_t i = 0; i < n; ++i)
            sem::execDataOp(op[i], read, mem, write);
        ops += n;
        if (n < b.num_ops) {
            result.ops_executed = ops + 1;
            break;  // completed stays false
        }

        // Terminator.
        ++ops;
        if (!b.term.is_branch)
            TG_PANIC("bad terminator in bb%u", ids_[cur]);
        result.ops_executed = ops;
        const sem::BranchOutcome out = sem::evalBranch(b.term, read);
        if (out.kind == sem::BranchOutcome::Kind::kMalformedMwbr) {
            // A selector outside the case table means the program is
            // dynamically malformed; the generator always narrows
            // selectors into range, but fuzz reduction can delete or
            // shrink part of the narrowing chain. Halt without
            // completing so callers reject the execution instead of
            // the process aborting.
            break;
        }
        if (out.is_ret) {
            result.completed = true;
            result.ret_value = out.ret_value;
            result.wrapped_stores = mem.wrappedStores();
            break;
        }
        if (ops > spin_limit)
            break;  // completed stays false
        // A not-taken BRCT/BRCF falls through to target slot 1.
        const size_t slot =
            out.kind == sem::BranchOutcome::Kind::kFire ? out.slot : 1;
        TG_ASSERT(slot < b.num_targets);
        if (counts)
            ++counts->edge[b.edge_base + slot];
        cur = targets_[b.edge_base + slot];
        TG_ASSERT(cur != kNoTarget);
    }
    memory = mem.takeMemory();
    return result;
}

ExecResult
SequentialProgram::run(std::vector<int64_t> memory,
                       const InterpOptions &options) const
{
    ExecResult result = exec(memory, options, true, nullptr);
    result.memory = std::move(memory);
    return result;
}

ExecResult
SequentialProgram::runCounted(std::vector<int64_t> &memory,
                              ExecutionCounts &counts,
                              const InterpOptions &options) const
{
    return exec(memory, options, false, &counts);
}

ExecResult
runSequential(const ir::Function &fn, std::vector<int64_t> memory,
              const InterpOptions &options)
{
    return SequentialProgram(fn).run(std::move(memory), options);
}

} // namespace treegion::vliw
