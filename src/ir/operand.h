/**
 * @file
 * Register and immediate operands.
 *
 * The machine has three architectural register classes, mirroring
 * Play-Doh: general-purpose registers ("r"), predicate registers
 * ("p"), and branch-target registers ("b"). Before scheduling, all
 * registers are virtual (unbounded index space); the schedulers
 * allocate fresh virtual registers while renaming.
 */

#ifndef TREEGION_IR_OPERAND_H
#define TREEGION_IR_OPERAND_H

#include <cstdint>
#include <functional>
#include <string>

namespace treegion::ir {

/** Architectural register classes. */
enum class RegClass : uint8_t {
    Gpr,   ///< general-purpose ("r")
    Pred,  ///< predicate ("p")
    Btr,   ///< branch target ("b")
};

/** A (class, index) register name. */
struct Reg
{
    RegClass cls = RegClass::Gpr;
    uint32_t idx = 0;

    bool operator==(const Reg &other) const = default;
    auto operator<=>(const Reg &other) const = default;

    /** Append "r3" / "p1" / "b2" to @p out. */
    void appendTo(std::string &out) const;

    /** Render as "r3" / "p1" / "b2". */
    std::string str() const;
};

/** Construct a GPR. */
inline Reg gpr(uint32_t idx) { return {RegClass::Gpr, idx}; }
/** Construct a predicate register. */
inline Reg pred(uint32_t idx) { return {RegClass::Pred, idx}; }
/** Construct a branch target register. */
inline Reg btr(uint32_t idx) { return {RegClass::Btr, idx}; }

/** A source operand: either a register or a 64-bit immediate. */
struct Operand
{
    enum class Kind : uint8_t { Register, Immediate } kind = Kind::Immediate;
    Reg reg;            ///< valid when kind == Register
    int64_t imm = 0;    ///< valid when kind == Immediate

    /** Make a register operand. */
    static Operand
    makeReg(Reg r)
    {
        Operand op;
        op.kind = Kind::Register;
        op.reg = r;
        return op;
    }

    /** Make an immediate operand. */
    static Operand
    makeImm(int64_t value)
    {
        Operand op;
        op.kind = Kind::Immediate;
        op.imm = value;
        return op;
    }

    bool isReg() const { return kind == Kind::Register; }
    bool isImm() const { return kind == Kind::Immediate; }

    bool operator==(const Operand &other) const = default;

    /** Append the register name or decimal immediate to @p out. */
    void appendTo(std::string &out) const;

    /** Render as register name or decimal immediate. */
    std::string str() const;
};

} // namespace treegion::ir

template <>
struct std::hash<treegion::ir::Reg>
{
    size_t
    operator()(const treegion::ir::Reg &r) const noexcept
    {
        return (static_cast<size_t>(r.cls) << 32) ^ r.idx;
    }
};

#endif // TREEGION_IR_OPERAND_H
