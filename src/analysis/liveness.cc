#include "analysis/liveness.h"

#include <utility>

#include "support/logging.h"

namespace treegion::analysis {

using ir::BlockId;
using support::BitVector;

Liveness::Liveness(ir::Function &fn)
    : num_gprs_(fn.numGprs()),
      num_preds_(fn.numPreds()),
      num_regs_(static_cast<size_t>(num_gprs_) + num_preds_),
      live_in_(fn.numBlockIds()),
      live_out_(fn.numBlockIds())
{
    // use[b]: read before any write in b; def[b]: written in b.
    std::vector<BitVector> use(fn.numBlockIds()), def(fn.numBlockIds());
    const auto ids = fn.blockIds();
    for (const BlockId id : ids) {
        BitVector &u = use[id];
        BitVector &d = def[id];
        u.resize(num_regs_);
        d.resize(num_regs_);
        live_in_[id].resize(num_regs_);
        live_out_[id].resize(num_regs_);
        for (const ir::Op &op : fn.block(id).ops()) {
            op.forEachUsedReg([&](const ir::Reg &r) {
                if (r.cls == ir::RegClass::Btr)
                    return;
                const size_t idx = regIndex(r);
                if (!d.test(idx))
                    u.set(idx);
            });
            for (const ir::Reg r : op.dsts) {
                if (r.cls == ir::RegClass::Btr)
                    continue;
                d.set(regIndex(r));
            }
        }
    }

    BitVector in(num_regs_);  // scratch, reused by every step
    bool changed = true;
    while (changed) {
        changed = false;
        // Iterate in reverse id order as a cheap approximation of
        // reverse program order; the fixpoint is order-insensitive.
        for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
            const BlockId id = *it;
            const ir::BasicBlock &b = fn.block(id);
            BitVector &out = live_out_[id];
            if (b.hasTerminator()) {
                for (const BlockId succ : b.terminator().targets) {
                    if (succ != ir::kNoBlock)
                        changed |= out.unionWith(live_in_[succ]);
                }
            }
            in = out;
            in.subtract(def[id]);
            in.unionWith(use[id]);
            if (!(in == live_in_[id])) {
                std::swap(in, live_in_[id]);
                changed = true;
            }
        }
    }
}

size_t
Liveness::regIndex(ir::Reg r) const
{
    switch (r.cls) {
      case ir::RegClass::Gpr:
        TG_ASSERT(r.idx < num_gprs_);
        return r.idx;
      case ir::RegClass::Pred:
        TG_ASSERT(r.idx < num_preds_);
        return num_gprs_ + r.idx;
      default:
        TG_PANIC("BTRs are not tracked by liveness");
    }
}

bool
Liveness::liveIn(BlockId id, ir::Reg r) const
{
    return liveInSet(id).test(regIndex(r));
}

bool
Liveness::liveOut(BlockId id, ir::Reg r) const
{
    TG_ASSERT(id < live_out_.size());
    return live_out_[id].test(regIndex(r));
}

const BitVector &
Liveness::liveInSet(BlockId id) const
{
    TG_ASSERT(id < live_in_.size());
    return live_in_[id];
}

} // namespace treegion::analysis
