/**
 * @file
 * Classic backward live-variable analysis over virtual registers.
 *
 * The region schedulers consult live-in sets at region exits to decide
 * which renamed values need reconciliation copies, exactly the
 * live-out information the paper's renaming step requires.
 */

#ifndef TREEGION_ANALYSIS_LIVENESS_H
#define TREEGION_ANALYSIS_LIVENESS_H

#include <vector>

#include "ir/function.h"
#include "support/bitvector.h"

namespace treegion::analysis {

/**
 * Live-in / live-out register sets per basic block, stored densely by
 * BlockId (removed blocks keep an empty slot).
 */
class Liveness
{
  public:
    /** Run the fixpoint for @p fn. */
    explicit Liveness(ir::Function &fn);

    /** @return true if register @p r is live on entry to @p id. */
    bool liveIn(ir::BlockId id, ir::Reg r) const;

    /** @return true if register @p r is live on exit from @p id. */
    bool liveOut(ir::BlockId id, ir::Reg r) const;

    /** @return the live-in set of @p id as a bit vector. */
    const support::BitVector &liveInSet(ir::BlockId id) const;

    /** Dense index of @p r in the bit vectors. */
    size_t regIndex(ir::Reg r) const;

    /** Total number of tracked registers. */
    size_t numRegs() const { return num_regs_; }

  private:
    uint32_t num_gprs_;
    uint32_t num_preds_;
    size_t num_regs_;
    std::vector<support::BitVector> live_in_;
    std::vector<support::BitVector> live_out_;
};

} // namespace treegion::analysis

#endif // TREEGION_ANALYSIS_LIVENESS_H
