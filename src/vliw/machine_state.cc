#include "vliw/machine_state.h"

#include "support/logging.h"

namespace treegion::vliw {

MachineState::MachineState(uint32_t num_gprs, uint32_t num_preds,
                           std::vector<int64_t> memory)
    : gprs_(num_gprs, 0),
      preds_(num_preds, 0),
      memory_(std::move(memory))
{
    TG_ASSERT(!memory_.empty());
}

int64_t
MachineState::readReg(ir::Reg r) const
{
    switch (r.cls) {
      case ir::RegClass::Gpr:
        TG_ASSERT(r.idx < gprs_.size());
        return gprs_[r.idx];
      case ir::RegClass::Pred:
        TG_ASSERT(r.idx < preds_.size());
        return preds_[r.idx];
      case ir::RegClass::Btr:
        return 0;
    }
    TG_PANIC("bad RegClass");
}

void
MachineState::writeReg(ir::Reg r, int64_t value)
{
    switch (r.cls) {
      case ir::RegClass::Gpr:
        TG_ASSERT(r.idx < gprs_.size());
        gprs_[r.idx] = value;
        return;
      case ir::RegClass::Pred:
        TG_ASSERT(r.idx < preds_.size());
        preds_[r.idx] = value ? 1 : 0;
        return;
      case ir::RegClass::Btr:
        return;  // BTRs carry no simulated semantics
    }
    TG_PANIC("bad RegClass");
}

} // namespace treegion::vliw
