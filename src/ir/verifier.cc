#include "ir/verifier.h"

#include <algorithm>

#include "support/logging.h"
#include "support/string_utils.h"

namespace treegion::ir {

namespace {

using support::strprintf;

class Verifier
{
  public:
    Verifier(Function &fn, VerifyLevel level)
        : fn_(fn), level_(level), op_seen_(fn.numOpIds())
    {
    }

    std::vector<std::string>
    run()
    {
        if (fn_.entry() == kNoBlock || !fn_.hasBlock(fn_.entry())) {
            err("missing entry block");
            return problems_;
        }
        fn_.forEachBlock([&](const BasicBlock &b) { checkBlock(b); });
        checkReachability();
        if (level_ == VerifyLevel::Schedulable)
            fn_.forEachBlock(
                [&](const BasicBlock &b) { checkSchedulable(b); });
        fn_.forEachBlock(
            [&](const BasicBlock &b) { checkRegisterRanges(b); });
        return problems_;
    }

  private:
    void
    err(std::string msg)
    {
        problems_.push_back(std::move(msg));
    }

    void
    checkBlock(const BasicBlock &b)
    {
        const auto where = [&](const Op &op) {
            return strprintf("bb%u op%u (%s)", b.id(), op.id,
                             op.str().c_str());
        };

        if (!b.hasTerminator()) {
            err(strprintf("bb%u: no terminator", b.id()));
            return;
        }

        for (size_t i = 0; i < b.ops().size(); ++i) {
            const Op &op = b.ops()[i];
            const bool is_last = (i + 1 == b.ops().size());
            if (op.isBranch() != is_last)
                err(where(op) + ": branch op must be the terminator");
            if (op.home != b.id())
                err(where(op) + ": op.home does not match its block");
            if (!firstSighting(op.id))
                err(where(op) + ": duplicate op id");
            checkOpShape(b, op);
        }

        const Op &term = b.terminator();
        for (BlockId target : term.targets) {
            if (target == kNoBlock)
                err(strprintf("bb%u: fallthru target outside a region "
                              "schedule", b.id()));
            else if (!fn_.hasBlock(target))
                err(strprintf("bb%u: branch to dead block bb%u", b.id(),
                              target));
        }
        if (!b.edgeWeights().empty() &&
            b.edgeWeights().size() != term.targets.size()) {
            err(strprintf("bb%u: edge weight count %zu != target count "
                          "%zu", b.id(), b.edgeWeights().size(),
                          term.targets.size()));
        }
    }

    void
    checkOpShape(const BasicBlock &b, const Op &op)
    {
        const OpcodeInfo &info = opcodeInfo(op.opcode);
        const auto where = [&]() {
            return strprintf("bb%u op%u (%s)", b.id(), op.id,
                             op.str().c_str());
        };

        // Destination count and classes.
        if (op.opcode == Opcode::CMPP) {
            if (op.dsts.empty() || op.dsts.size() > 2)
                err(where() + ": CMPP needs 1 or 2 destinations");
            for (const Reg &d : op.dsts) {
                if (d.cls != RegClass::Pred)
                    err(where() + ": CMPP destination must be predicate");
            }
        } else if (op.opcode == Opcode::PSET ||
                   op.opcode == Opcode::PCLR ||
                   op.opcode == Opcode::CMPPA ||
                   op.opcode == Opcode::CMPPO) {
            if (op.dsts.size() != 1 ||
                op.dsts[0].cls != RegClass::Pred) {
                err(where() + ": predicate-define needs one predicate "
                              "destination");
            }
        } else if (static_cast<int>(op.dsts.size()) != info.numDsts) {
            err(where() + ": wrong destination count");
        }
        if (op.opcode == Opcode::PBR && !op.dsts.empty() &&
            op.dsts[0].cls != RegClass::Btr) {
            err(where() + ": PBR destination must be a BTR");
        }
        if (!op.dsts.empty() && op.opcode != Opcode::CMPP &&
            op.opcode != Opcode::PSET && op.opcode != Opcode::PCLR &&
            op.opcode != Opcode::CMPPA && op.opcode != Opcode::CMPPO &&
            op.opcode != Opcode::PBR && op.dsts[0].cls != RegClass::Gpr) {
            err(where() + ": destination must be a GPR");
        }

        // Source count and classes.
        if (static_cast<int>(op.srcs.size()) != info.numSrcs)
            err(where() + ": wrong source count");
        if (op.opcode == Opcode::MOVI && !op.srcs.empty() &&
            !op.srcs[0].isImm()) {
            err(where() + ": MOVI source must be immediate");
        }
        if ((info.isLoad || info.isStore) && op.srcs.size() >= 2) {
            if (!op.srcs[0].isReg() || op.srcs[0].reg.cls != RegClass::Gpr)
                err(where() + ": memory base must be a GPR");
            if (!op.srcs[1].isImm())
                err(where() + ": memory offset must be immediate");
        }
        if ((op.opcode == Opcode::BRCT || op.opcode == Opcode::BRCF) &&
            !op.srcs.empty() &&
            (!op.srcs[0].isReg() ||
             op.srcs[0].reg.cls != RegClass::Pred)) {
            err(where() + ": branch condition must be a predicate");
        }
        if (op.guard && op.guard->cls != RegClass::Pred)
            err(where() + ": guard must be a predicate register");

        // Branch target arity.
        switch (op.opcode) {
          case Opcode::BRU:
            if (op.targets.size() != 1)
                err(where() + ": BRU needs exactly one target");
            break;
          case Opcode::BRCT:
          case Opcode::BRCF:
            if (op.targets.empty() || op.targets.size() > 2)
                err(where() + ": BRCT/BRCF need 1 or 2 targets");
            break;
          case Opcode::MWBR:
            if (op.targets.empty())
                err(where() + ": MWBR needs targets");
            if (op.targets.size() != op.caseValues.size())
                err(where() + ": MWBR case/target count mismatch");
            break;
          case Opcode::RET:
            if (!op.targets.empty())
                err(where() + ": RET takes no targets");
            break;
          case Opcode::PBR:
            if (op.targets.size() != 1)
                err(where() + ": PBR needs exactly one target");
            break;
          default:
            if (!op.targets.empty())
                err(where() + ": non-branch op with targets");
            break;
        }
    }

    /** @return false when op id @p id was already seen. */
    bool
    firstSighting(OpId id)
    {
        // Only a hand-edited op can carry an id the function never
        // allocated.
        if (id >= op_seen_.size())
            op_seen_.resize(static_cast<size_t>(id) + 1);
        if (op_seen_[id])
            return false;
        op_seen_[id] = true;
        return true;
    }

    void
    checkReachability()
    {
        std::vector<bool> seen(fn_.numBlockIds());
        std::vector<BlockId> stack = {fn_.entry()};
        seen[fn_.entry()] = true;
        while (!stack.empty()) {
            const BasicBlock &b = fn_.block(stack.back());
            stack.pop_back();
            if (!b.hasTerminator())
                continue;
            for (const BlockId succ : b.terminator().targets) {
                if (fn_.hasBlock(succ) && !seen[succ]) {
                    seen[succ] = true;
                    stack.push_back(succ);
                }
            }
        }
        fn_.forEachBlock([&](const BasicBlock &b) {
            if (!seen[b.id()])
                err(strprintf("bb%u unreachable from entry", b.id()));
        });
    }

    /** Scheduler input preconditions. */
    void
    checkSchedulable(const BasicBlock &b)
    {
        // Collect predicate defs in this block.
        pred_defs_.clear();
        for (const Op &op : b.ops()) {
            if (op.guard) {
                err(strprintf("bb%u op%u: guards are a scheduler "
                              "output, not an input", b.id(), op.id));
            }
            if (op.opcode == Opcode::PBR || op.opcode == Opcode::PSET ||
                op.opcode == Opcode::PCLR ||
                op.opcode == Opcode::CMPPA ||
                op.opcode == Opcode::CMPPO) {
                err(strprintf("bb%u op%u: %s is a scheduler output",
                              b.id(), op.id,
                              std::string(opcodeName(op.opcode))
                                  .c_str()));
            }
            if (op.opcode == Opcode::CMPP) {
                if (op.dsts.size() != 1) {
                    err(strprintf("bb%u op%u: sequential CMPP must have "
                                  "one destination", b.id(), op.id));
                }
                for (const Reg &d : op.dsts)
                    pred_defs_.push_back(d.idx);
            }
            // Predicate uses may only be block terminator conditions.
            if (!op.isBranch()) {
                op.forEachUsedReg([&](Reg use) {
                    if (use.cls == RegClass::Pred)
                        err(strprintf("bb%u op%u: predicate used by a "
                                      "non-branch op", b.id(), op.id));
                });
            }
        }
        // checkBlock reported a missing terminator.
        if (!b.hasTerminator())
            return;
        const Op &term = b.terminator();
        if (term.opcode == Opcode::BRCT || term.opcode == Opcode::BRCF) {
            if (term.targets.size() != 2) {
                err(strprintf("bb%u: sequential conditional branch "
                              "needs taken and fall targets", b.id()));
            }
            // checkOpShape reported a missing condition.
            const uint32_t cond =
                term.srcs.empty() ? 0 : term.srcs[0].reg.idx;
            const bool defined =
                std::find(pred_defs_.begin(), pred_defs_.end(), cond) !=
                pred_defs_.end();
            if (!term.srcs.empty() && !defined) {
                err(strprintf("bb%u: branch condition p%u not defined "
                              "by a CMPP in the same block", b.id(),
                              cond));
            }
        }
        if (term.opcode == Opcode::MWBR) {
            for (size_t i = 0; i < term.caseValues.size(); ++i) {
                if (term.caseValues[i] != static_cast<int64_t>(i))
                    err(strprintf("bb%u: sequential MWBR cases must be "
                                  "dense 0..n-1", b.id()));
            }
        }
    }

    /** @return the number of registers of @p cls the function declares. */
    uint32_t
    declared(RegClass cls) const
    {
        switch (cls) {
          case RegClass::Gpr: return fn_.numGprs();
          case RegClass::Pred: return fn_.numPreds();
          case RegClass::Btr: return fn_.numBtrs();
        }
        return 0;
    }

    /**
     * Every register an op names must lie inside its class's declared
     * range (a parsed function's gprs=/preds=): the simulators size
     * their register files from those counts.
     */
    void
    checkRegisterRanges(const BasicBlock &b)
    {
        for (const Op &op : b.ops()) {
            std::optional<Reg> bad;
            const auto check = [&](Reg r) {
                if (!bad && r.idx >= declared(r.cls))
                    bad = r;
            };
            for (const Reg &d : op.dsts)
                check(d);
            op.forEachUsedReg(check);
            if (bad) {
                err(strprintf("bb%u op%u (%s): register %s out of range "
                              "(%u declared)", b.id(), op.id,
                              op.str().c_str(), bad->str().c_str(),
                              declared(bad->cls)));
            }
        }
    }

    Function &fn_;
    VerifyLevel level_;
    std::vector<std::string> problems_;
    std::vector<bool> op_seen_;        ///< by op id
    std::vector<uint32_t> pred_defs_;  ///< CMPP-defined preds, per block
};

} // namespace

std::vector<std::string>
verifyFunction(Function &fn, VerifyLevel level)
{
    return Verifier(fn, level).run();
}

void
verifyOrDie(Function &fn, VerifyLevel level)
{
    auto problems = verifyFunction(fn, level);
    if (!problems.empty()) {
        TG_PANIC("IR verification failed for %s: %s (and %zu more)",
                 fn.name().c_str(), problems.front().c_str(),
                 problems.size() - 1);
    }
}

} // namespace treegion::ir
