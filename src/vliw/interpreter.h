/**
 * @file
 * Sequential reference interpreter.
 *
 * Executes a function's sequential IR block by block. It is the
 * semantic ground truth the VLIW schedule simulator is checked
 * against, and the engine behind the profiler (per-block and per-edge
 * execution counts).
 *
 * A SequentialProgram decodes the function once into flat records:
 * blocks numbered densely in id order, one int64_t register file
 * (a zero slot, a sink slot for BTR writes, the GPRs, then the
 * predicates), immediates inline, and per block one terminator record
 * whose target slots index dense targets and edge counters. Runs touch
 * neither ir::Op nor a hash map; what each op does still comes from
 * vliw/op_semantics.h alone. Decode once to run a function on several
 * memory images.
 */

#ifndef TREEGION_VLIW_INTERPRETER_H
#define TREEGION_VLIW_INTERPRETER_H

#include <cstdint>
#include <vector>

#include "ir/function.h"

namespace treegion::vliw {

/** Outcome of one sequential execution. */
struct ExecResult
{
    bool completed = false;   ///< false: step/cycle limit hit
    int64_t ret_value = 0;    ///< RET operand value
    std::vector<int64_t> memory;       ///< final memory image
    std::vector<ir::BlockId> trace;    ///< blocks entered, in order
    uint64_t ops_executed = 0;
    uint64_t wrapped_stores = 0;
};

/** Per-block and per-edge execution counts from one or more runs. */
struct ExecutionCounts
{
    std::vector<uint64_t> block;  ///< by dense block number
    std::vector<uint64_t> edge;   ///< by edgeBase(block) + target slot
};

/** Sequential execution options. */
struct InterpOptions
{
    /**
     * Abort runaway programs: a run stops, not completed, at the first
     * body op past this many ops (terminators are not checked), or
     * once it provably cycles through body-less blocks forever.
     */
    uint64_t max_ops = 2'000'000;
};

/** A function decoded for sequential execution. */
class SequentialProgram
{
  public:
    /** Decode @p fn, which must verify at Schedulable level. */
    explicit SequentialProgram(const ir::Function &fn);

    /** Run on @p memory; the final image is ExecResult::memory. */
    ExecResult run(std::vector<int64_t> memory,
                   const InterpOptions &options = {}) const;

    /**
     * Run on @p memory in place and add the run's block and edge
     * counts to @p counts (from zeroCounts()). Records no trace and
     * leaves ExecResult::memory empty.
     */
    ExecResult runCounted(std::vector<int64_t> &memory,
                          ExecutionCounts &counts,
                          const InterpOptions &options = {}) const;

    /** @return zeroed counters sized for this program. */
    ExecutionCounts zeroCounts() const;

    /** @return the number of blocks (the live blocks of the function). */
    size_t numBlocks() const { return blocks_.size(); }

    /** @return the BlockId of dense block @p dense. */
    ir::BlockId blockId(size_t dense) const { return ids_[dense]; }

    /** @return the edge counter index of dense block @p dense's slot 0. */
    size_t edgeBase(size_t dense) const { return blocks_[dense].edge_base; }

  private:
    /** Register-file slot holding 0 (immediates, BTR reads). */
    static constexpr uint32_t kZeroSlot = 0;
    /** Register-file slot BTR writes land in; never read. */
    static constexpr uint32_t kSinkSlot = 1;
    /** Slot of r0; the predicates follow the GPRs. */
    static constexpr uint32_t kGprBase = 2;
    static constexpr uint32_t kNoGuard = UINT32_MAX;
    static constexpr uint32_t kNoTarget = UINT32_MAX;

    /** A destination slot; predicate writes store value != 0. */
    struct Dst
    {
        uint32_t slot;
        bool pred;
    };

    /**
     * One decoded op, in op_semantics.h's representation interface.
     * Source i reads regs[slots[i]] + imms[i]: an immediate reads the
     * zero slot, a register has imm 0.
     */
    struct DecodedOp
    {
        int64_t imms[3] = {0, 0, 0};
        uint32_t slots[3] = {kZeroSlot, kZeroSlot, kZeroSlot};
        uint32_t dsts[2] = {kSinkSlot, kSinkSlot};
        uint32_t guard = kNoGuard;
        ir::Opcode code = ir::Opcode::MOVI;
        ir::CmpKind kind = ir::CmpKind::EQ;
        uint8_t num_srcs = 0;
        uint8_t num_dsts = 0;
        uint8_t pred_dsts = 0;  ///< bit i: dst i is a predicate
        uint8_t lat = 0;

        ir::Opcode opcode() const { return code; }
        ir::CmpKind cmp() const { return kind; }
        int latency() const { return lat; }
        size_t numSrcs() const { return num_srcs; }
        int64_t imm(size_t i) const { return imms[i]; }
        size_t numDsts() const { return num_dsts; }

        Dst
        dst(size_t i) const
        {
            return {dsts[i], (pred_dsts >> i & 1) != 0};
        }

        template <typename ReadReg>
        int64_t
        src(size_t i, ReadReg &&read) const
        {
            return read(slots[i]) + imms[i];
        }

        template <typename ReadReg>
        bool
        guardTrue(ReadReg &&read) const
        {
            return guard == kNoGuard || read(guard) != 0;
        }
    };

    /** A block's terminator: its op plus its MWBR case values. */
    struct Term : DecodedOp
    {
        bool is_branch = false;  ///< false: the block ends in no branch
        std::vector<int64_t> cases;

        size_t numCases() const { return cases.size(); }
        int64_t caseValue(size_t i) const { return cases[i]; }
    };

    struct Block
    {
        uint32_t first_op = 0;  ///< body is ops_[first_op, +num_ops)
        uint32_t num_ops = 0;
        uint32_t edge_base = 0;  ///< slot s counts at edge_base + s
        uint32_t num_targets = 0;
        Term term;
    };

    ExecResult exec(std::vector<int64_t> &memory,
                    const InterpOptions &options, bool trace,
                    ExecutionCounts *counts) const;

    std::vector<DecodedOp> ops_;
    std::vector<Block> blocks_;
    std::vector<uint32_t> targets_;  ///< dense target per edge index
    std::vector<ir::BlockId> ids_;   ///< BlockId per dense block
    uint32_t entry_ = 0;
    uint32_t num_slots_ = kGprBase;
};

/**
 * Run @p fn sequentially on @p memory (decodes it; hold a
 * SequentialProgram to run one function on several images).
 *
 * @param fn the function (must verify at Schedulable level)
 * @param memory initial data memory
 * @param options limits
 */
ExecResult runSequential(const ir::Function &fn,
                         std::vector<int64_t> memory,
                         const InterpOptions &options = {});

} // namespace treegion::vliw

#endif // TREEGION_VLIW_INTERPRETER_H
