/**
 * @file
 * Operation semantics shared by every execution engine.
 *
 * The sequential interpreter, the in-order VLIW simulator and the
 * out-of-order backend all execute the same Play-Doh repertoire; this
 * header holds the single definition of what each op *does* so the
 * engines can only differ in *when* effects become visible:
 *
 *  - execDataOp() evaluates a non-branch op against caller-supplied
 *    register reads, performs memory effects immediately, and emits
 *    register writes through a callback carrying the visibility delay
 *    (the MultiOp latency). The interpreter applies writes at once;
 *    the VLIW simulator defers them onto its pending list; the OoO
 *    backend writes renamed physical registers. Like evalBranch() it
 *    is a template over the op representation (see IrOp), so the
 *    interpreter's decoded records share this definition.
 *  - evalBranch() decides whether a branch fires, which target slot
 *    it selects, and the RET value, without touching any schedule
 *    structures (exit lookup stays with each engine).
 *  - applyExitCopies() implements the parallel read-then-write
 *    reconciliation-copy semantics of a region exit.
 *
 * Guard handling is uniform: a guarded op only takes effect when its
 * predicate reads true, except CMPP, which writes guard AND cmp /
 * guard AND NOT cmp unconditionally (the HPL-PD unconditional-type
 * compare), and CMPPA/CMPPO, whose partial wired-AND/OR updates are
 * keyed on the comparison alone. Sequential IR carries no guards, so
 * the interpreter sees identical behaviour to its historical
 * unguarded switch.
 */

#ifndef TREEGION_VLIW_OP_SEMANTICS_H
#define TREEGION_VLIW_OP_SEMANTICS_H

#include <cstdint>

#include "ir/op.h"

namespace treegion::vliw {

/**
 * Run limits shared by the in-order VLIW simulator and the
 * out-of-order backend. Either engine halts with completed = false
 * (never aborts) when the budget is exhausted, so differential fuzz
 * campaigns cannot hang or crash on a pathological schedule.
 */
struct SimLimits
{
    uint64_t max_cycles = 20'000'000;
};

namespace sem {

/**
 * ir::Op as the semantics read it.
 *
 * execDataOp() and evalBranch() are templates over the op
 * representation, so the schedule simulators (ir::Op through this
 * view) and the sequential engine (its decoded records) run the one
 * definition below. A representation provides:
 *  - opcode(), cmp(), latency();
 *  - src(i, read): the value of source operand i (an immediate, or a
 *    register read through @p read), and imm(i): operand i's
 *    immediate field (LD/ST offsets);
 *  - numDsts() and dst(i), which is whatever the write sink takes;
 *  - guardTrue(read): unguarded, or the guard predicate reads true;
 *  - numSrcs(); numCases() and caseValue(i) for MWBR.
 */
class IrOp
{
  public:
    explicit IrOp(const ir::Op &op) : op_(op) {}

    ir::Opcode opcode() const { return op_.opcode; }
    ir::CmpKind cmp() const { return op_.cmp; }
    int latency() const { return op_.latency(); }
    size_t numSrcs() const { return op_.srcs.size(); }
    int64_t imm(size_t i) const { return op_.srcs[i].imm; }
    size_t numDsts() const { return op_.dsts.size(); }
    ir::Reg dst(size_t i) const { return op_.dsts[i]; }
    size_t numCases() const { return op_.caseValues.size(); }
    int64_t caseValue(size_t i) const { return op_.caseValues[i]; }

    template <typename ReadReg>
    int64_t
    src(size_t i, ReadReg &&read) const
    {
        const ir::Operand &operand = op_.srcs[i];
        return operand.isImm() ? operand.imm : read(operand.reg);
    }

    template <typename ReadReg>
    bool
    guardTrue(ReadReg &&read) const
    {
        return !op_.guard || read(*op_.guard) != 0;
    }

  private:
    const ir::Op &op_;
};

/**
 * Execute one non-branch op.
 *
 * @param op the op (any opcode except BRU/BRCT/BRCF/MWBR/RET), in any
 *        representation with IrOp's interface
 * @param read register-read functor taking the representation's
 *        register handle
 * @param mem memory interface with readMem(addr) / writeMem(addr, v)
 *        (dismissible wrap semantics live there)
 * @param write register-write sink: void(dst, int64_t value, int
 *        delay) where @p dst is op.dst(i) and @p delay is the number
 *        of cycles after issue at which the write becomes
 *        architecturally visible. Predicate-file writers use delay 1;
 *        LD and ALU ops use the opcode latency. Conditional writers
 *        (guarded ops, CMPPA, CMPPO) simply do not call the sink when
 *        the write is suppressed.
 */
template <typename OpRep, typename ReadReg, typename MemIf,
          typename WriteFn>
inline void
execDataOp(const OpRep &op, ReadReg &&read, MemIf &mem, WriteFn &&write)
{
    auto val = [&](size_t i) { return op.src(i, read); };
    switch (op.opcode()) {
      case ir::Opcode::LD:
        write(op.dst(0), mem.readMem(val(0) + op.imm(1)), op.latency());
        break;
      case ir::Opcode::ST:
        if (op.guardTrue(read))
            mem.writeMem(val(0) + op.imm(1), val(2));
        break;
      case ir::Opcode::CMPP: {
        const bool guard = op.guardTrue(read);
        const bool cmp = ir::evalCmp(op.cmp(), val(0), val(1));
        write(op.dst(0), guard && cmp, 1);
        if (op.numDsts() > 1)
            write(op.dst(1), guard && !cmp, 1);
        break;
      }
      case ir::Opcode::PSET:
        write(op.dst(0), 1, 1);
        break;
      case ir::Opcode::PCLR:
        write(op.dst(0), 0, 1);
        break;
      case ir::Opcode::CMPPA:
        // And-type compare: clears the predicate when the condition
        // fails, leaves it untouched otherwise, so several CMPPAs may
        // share a cycle (wired-AND).
        if (!ir::evalCmp(op.cmp(), val(0), val(1)))
            write(op.dst(0), 0, 1);
        break;
      case ir::Opcode::CMPPO:
        // Or-type compare: the dual of CMPPA (wired-OR).
        if (ir::evalCmp(op.cmp(), val(0), val(1)))
            write(op.dst(0), 1, 1);
        break;
      case ir::Opcode::PBR:
        break;  // no simulated semantics
      default: {
        // Plain computation. Usually unguarded (speculative);
        // hyperblock merge copies are guarded MOVs whose write is
        // conditional.
        if (!op.guardTrue(read))
            break;
        const int64_t a = val(0);
        const int64_t b = op.numSrcs() > 1 ? val(1) : 0;
        write(op.dst(0), ir::evalAlu(op.opcode(), a, b), op.latency());
        break;
      }
    }
}

/** What a branch op decided. */
struct BranchOutcome
{
    enum class Kind : uint8_t {
        kNone,           ///< branch did not take (no control transfer)
        kFire,           ///< branch takes target slot @ref slot
        kMalformedMwbr,  ///< MWBR selector matched no case value
    };

    Kind kind = Kind::kNone;
    size_t slot = 0;       ///< index into op.targets when kFire
    bool is_ret = false;   ///< kFire from a RET
    int64_t ret_value = 0; ///< RET result when is_ret
};

/**
 * Decide a branch op (BRU/BRCT/BRCF/MWBR/RET), in any representation
 * with IrOp's interface.
 *
 * BRU always fires slot 0. BRCT/BRCF read their predicate source and
 * fire slot 0 when taken; not-taken is kNone (the sequential
 * interpreter maps that to the fall-through slot, the schedule
 * simulators to "no exit"). MWBR and RET honour their guard; an MWBR
 * whose selector matches no case reports kMalformedMwbr so each
 * engine can choose between halting (sequential fuzz reductions) and
 * panicking (verified schedules).
 */
template <typename OpRep, typename ReadReg>
inline BranchOutcome
evalBranch(const OpRep &op, ReadReg &&read)
{
    BranchOutcome out;
    switch (op.opcode()) {
      case ir::Opcode::BRU:
        out.kind = BranchOutcome::Kind::kFire;
        break;
      case ir::Opcode::BRCT:
      case ir::Opcode::BRCF: {
        const bool p = op.src(0, read) != 0;
        const bool taken = op.opcode() == ir::Opcode::BRCT ? p : !p;
        if (taken)
            out.kind = BranchOutcome::Kind::kFire;
        break;
      }
      case ir::Opcode::MWBR: {
        if (!op.guardTrue(read))
            break;
        const int64_t sel = op.src(0, read);
        out.kind = BranchOutcome::Kind::kMalformedMwbr;
        for (size_t i = 0; i < op.numCases(); ++i) {
            if (op.caseValue(i) == sel) {
                out.kind = BranchOutcome::Kind::kFire;
                out.slot = i;
                break;
            }
        }
        break;
      }
      case ir::Opcode::RET:
        if (op.guardTrue(read)) {
            out.kind = BranchOutcome::Kind::kFire;
            out.is_ret = true;
            out.ret_value = op.src(0, read);
        }
        break;
      default:
        break;  // not a branch; callers guard on op.isBranch()
    }
    return out;
}

/**
 * Apply an exit's reconciliation copies: all sources are read first,
 * then all destinations written, so copies behave as one parallel
 * MultiOp regardless of dst/src overlap.
 *
 * @param copies the exit's ExitCopy-like list (members dst, src)
 * @param read register-read functor
 * @param write register-write functor: void(ir::Reg, int64_t)
 * @return the number of copies applied
 */
template <typename Copies, typename ReadReg, typename WriteReg>
inline size_t
applyExitCopies(const Copies &copies, ReadReg &&read, WriteReg &&write)
{
    std::vector<std::pair<ir::Reg, int64_t>> writes;
    writes.reserve(copies.size());
    for (const auto &copy : copies)
        writes.emplace_back(copy.dst, read(copy.src));
    for (const auto &[dst, value] : writes)
        write(dst, value);
    return writes.size();
}

} // namespace sem
} // namespace treegion::vliw

#endif // TREEGION_VLIW_OP_SEMANTICS_H
