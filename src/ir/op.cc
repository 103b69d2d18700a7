#include "ir/op.h"

#include "support/logging.h"
#include "support/string_utils.h"

namespace treegion::ir {

void
Reg::appendTo(std::string &out) const
{
    out += cls == RegClass::Pred ? 'p' : cls == RegClass::Btr ? 'b' : 'r';
    support::appendInt(out, idx);
}

std::string
Reg::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

void
Operand::appendTo(std::string &out) const
{
    if (isReg())
        reg.appendTo(out);
    else
        support::appendInt(out, imm);
}

std::string
Operand::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

std::vector<Reg>
Op::usedRegs() const
{
    std::vector<Reg> regs;
    for (const Operand &src : srcs) {
        if (src.isReg())
            regs.push_back(src.reg);
    }
    if (guard)
        regs.push_back(*guard);
    return regs;
}

void
Op::renameUses(Reg from, Reg to)
{
    for (Operand &src : srcs) {
        if (src.isReg() && src.reg == from)
            src.reg = to;
    }
    if (guard && *guard == from)
        guard = to;
}

void
Op::renameDefs(Reg from, Reg to)
{
    for (Reg &dst : dsts) {
        if (dst == from)
            dst = to;
    }
}

namespace {

void
appendTarget(std::string &out, BlockId target)
{
    if (target == kNoBlock) {
        out += "fallthru";
    } else {
        out += "bb";
        support::appendInt(out, target);
    }
}

} // namespace

void
Op::appendTo(std::string &out) const
{
    // Destinations.
    for (size_t i = 0; i < dsts.size(); ++i) {
        if (i)
            out += ',';
        dsts[i].appendTo(out);
    }
    if (!dsts.empty())
        out += " = ";

    // Mnemonic.
    out += opcodeName(opcode);
    if (opcode == Opcode::CMPP || opcode == Opcode::CMPPA ||
        opcode == Opcode::CMPPO) {
        out += '.';
        out += cmpKindName(cmp);
    }

    // Operands: the bracketed memory forms when the op has their
    // operands (a malformed op under verification may not), else a
    // plain list.
    const size_t mem_srcs = opcode == Opcode::LD   ? 2
                            : opcode == Opcode::ST ? 3
                                                   : 0;
    if (mem_srcs && srcs.size() >= mem_srcs) {
        out += " [";
        srcs[0].appendTo(out);
        out += " + ";
        support::appendInt(out, srcs[1].imm);
        out += ']';
        if (opcode == Opcode::ST) {
            out += ", ";
            srcs[2].appendTo(out);
        }
    } else {
        for (size_t i = 0; i < srcs.size(); ++i) {
            out += i ? ", " : " ";
            srcs[i].appendTo(out);
        }
    }

    // Branch / PBR targets.
    if (opcode == Opcode::MWBR) {
        out += " [";
        for (size_t i = 0; i < targets.size(); ++i) {
            if (i)
                out += ", ";
            if (i < caseValues.size())
                support::appendInt(out, caseValues[i]);
            out += ':';
            appendTarget(out, targets[i]);
        }
        out += ']';
    } else {
        for (size_t i = 0; i < targets.size(); ++i) {
            out += (srcs.empty() && i == 0) ? " " : ", ";
            appendTarget(out, targets[i]);
        }
    }

    if (guard) {
        out += " ? ";
        guard->appendTo(out);
    }
}

std::string
Op::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

Op
makeMovi(Reg dst, int64_t imm)
{
    Op op;
    op.opcode = Opcode::MOVI;
    op.dsts = {dst};
    op.srcs = {Operand::makeImm(imm)};
    return op;
}

Op
makeBinary(Opcode opcode, Reg dst, Operand a, Operand b)
{
    TG_ASSERT(opcodeInfo(opcode).numSrcs == 2 &&
              !opcodeInfo(opcode).isBranch && opcode != Opcode::CMPP &&
              !opcodeInfo(opcode).isLoad);
    Op op;
    op.opcode = opcode;
    op.dsts = {dst};
    op.srcs = {a, b};
    return op;
}

Op
makeMov(Reg dst, Reg src)
{
    Op op;
    op.opcode = Opcode::MOV;
    op.dsts = {dst};
    op.srcs = {Operand::makeReg(src)};
    return op;
}

Op
makeCopy(Reg dst, Reg src)
{
    Op op;
    op.opcode = Opcode::COPY;
    op.dsts = {dst};
    op.srcs = {Operand::makeReg(src)};
    return op;
}

Op
makeLoad(Reg dst, Reg base, int64_t offset)
{
    Op op;
    op.opcode = Opcode::LD;
    op.dsts = {dst};
    op.srcs = {Operand::makeReg(base), Operand::makeImm(offset)};
    return op;
}

Op
makeStore(Reg base, int64_t offset, Operand value)
{
    Op op;
    op.opcode = Opcode::ST;
    op.srcs = {Operand::makeReg(base), Operand::makeImm(offset), value};
    return op;
}

Op
makeCmpp(CmpKind kind, Reg pt, Reg pf, Operand a, Operand b)
{
    TG_ASSERT(pt.cls == RegClass::Pred && pf.cls == RegClass::Pred);
    Op op;
    op.opcode = Opcode::CMPP;
    op.cmp = kind;
    op.dsts = {pt, pf};
    op.srcs = {a, b};
    return op;
}

Op
makeCmpp1(CmpKind kind, Reg pt, Operand a, Operand b)
{
    TG_ASSERT(pt.cls == RegClass::Pred);
    Op op;
    op.opcode = Opcode::CMPP;
    op.cmp = kind;
    op.dsts = {pt};
    op.srcs = {a, b};
    return op;
}

Op
makeBru(BlockId target)
{
    Op op;
    op.opcode = Opcode::BRU;
    op.targets = {target};
    return op;
}

Op
makeBrct(Reg pred_reg, BlockId taken, BlockId fall)
{
    TG_ASSERT(pred_reg.cls == RegClass::Pred);
    Op op;
    op.opcode = Opcode::BRCT;
    op.srcs = {Operand::makeReg(pred_reg)};
    op.targets = {taken, fall};
    return op;
}

Op
makeMwbr(Reg selector, std::vector<BlockId> targets)
{
    TG_ASSERT(!targets.empty());
    Op op;
    op.opcode = Opcode::MWBR;
    op.srcs = {Operand::makeReg(selector)};
    op.caseValues.resize(targets.size());
    for (size_t i = 0; i < targets.size(); ++i)
        op.caseValues[i] = static_cast<int64_t>(i);
    op.targets = std::move(targets);
    return op;
}

Op
makeRet(Operand result)
{
    Op op;
    op.opcode = Opcode::RET;
    op.srcs = {result};
    return op;
}

Op
makePbr(Reg btr_reg, BlockId target)
{
    TG_ASSERT(btr_reg.cls == RegClass::Btr);
    Op op;
    op.opcode = Opcode::PBR;
    op.dsts = {btr_reg};
    op.targets = {target};
    return op;
}

} // namespace treegion::ir
