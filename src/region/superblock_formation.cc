#include "region/formation.h"

#include <algorithm>

#include "support/logging.h"

namespace treegion::region {

using ir::BlockId;
using ir::kNoBlock;

namespace {

/** Best successor slot by edge weight (ties: first slot). */
bool
bestSlot(const ir::BasicBlock &b, size_t &slot_out, double &weight_out)
{
    const auto &targets = b.terminator().targets;
    if (targets.empty())
        return false;
    const auto &weights = b.edgeWeights();
    size_t best = 0;
    double best_w = -1.0;
    for (size_t i = 0; i < targets.size(); ++i) {
        const double w = i < weights.size() ? weights[i] : 0.0;
        if (w > best_w) {
            best_w = w;
            best = i;
        }
    }
    slot_out = best;
    weight_out = best_w;
    return true;
}

/** Is the original of @p id already in @p region (anti-unrolling)? */
bool
originalInRegion(ir::Function &fn, const Region &region, BlockId id)
{
    const BlockId orig = fn.block(id).originalId();
    for (const BlockId member : region.blocks()) {
        if (fn.block(member).originalId() == orig)
            return true;
    }
    return false;
}

} // namespace

RegionSet
formSuperblocks(ir::Function &fn, const SuperblockOptions &options)
{
    RegionSet set;

    // Seed selection: the hottest not-yet-covered block. Tail
    // duplication creates clones during formation; they join the
    // candidate pool automatically.
    auto next_seed = [&]() {
        BlockId best = kNoBlock;
        double best_w = -1.0;
        fn.forEachBlock([&](const ir::BasicBlock &b) {
            if (set.covered(b.id()))
                return;
            if (b.weight() > best_w) {
                best_w = b.weight();
                best = b.id();
            }
        });
        return best;
    };

    for (;;) {
        const BlockId seed = next_seed();
        if (seed == kNoBlock)
            break;

        Region sb(RegionKind::Superblock, seed);
        BlockId cur = seed;
        while (sb.size() < options.max_blocks) {
            size_t slot;
            double edge_w;
            if (!bestSlot(fn.block(cur), slot, edge_w))
                break;
            const BlockId next = fn.block(cur).terminator().targets[slot];
            if (next == kNoBlock || next == fn.entry() ||
                set.covered(next) || sb.contains(next) ||
                originalInRegion(fn, sb, next)) {
                break;
            }
            if (fn.isMergePoint(next)) {
                // Duplicating code that never runs is pure waste;
                // cold traces grow like SLRs instead (stop at the
                // merge point). Lukewarm edges below the trace-
                // selection threshold also stop growth.
                if (edge_w <= options.cold_edge_weight)
                    break;
                const double block_w = fn.block(cur).weight();
                if (block_w > 0.0 &&
                    edge_w < options.min_edge_prob * block_w) {
                    break;
                }
                // Hwu/Chang mutual-most-likely: the merge point joins
                // the trace only when this edge is its strongest
                // incoming edge (otherwise the trace through the
                // dominant predecessor gets it).
                if (options.mutual_most_likely) {
                    double in_flow = 0.0;
                    for (const BlockId pred : fn.predsOf(next)) {
                        const auto &pt = fn.block(pred).terminator();
                        const auto &pw = fn.block(pred).edgeWeights();
                        for (size_t s = 0; s < pt.targets.size(); ++s) {
                            if (pt.targets[s] == next &&
                                s < pw.size() &&
                                !(pred == cur && s == slot)) {
                                in_flow = std::max(in_flow, pw[s]);
                            }
                        }
                    }
                    if (edge_w < in_flow)
                        break;
                }
                const BlockId clone = tailDuplicateEdge(fn, cur, slot);
                sb.addBlock(clone, cur);
                cur = clone;
            } else {
                sb.addBlock(next, cur);
                cur = next;
            }
        }
        set.add(std::move(sb));
    }
    return set;
}

} // namespace treegion::region
