/**
 * @file
 * Tail-duplication primitives shared by treegion and superblock
 * formation.
 *
 * Tail duplication clones a merge-point block for one specific
 * incoming edge so the clone has a single predecessor and can be
 * absorbed into a region. Profile weights are split conservatively:
 * the clone receives the redirected edge's flow and the original's
 * weight (and outgoing edge weights) shrink proportionally, keeping
 * the profile flow-conserving.
 */

#ifndef TREEGION_REGION_TAIL_DUPLICATION_H
#define TREEGION_REGION_TAIL_DUPLICATION_H

#include <cstddef>

#include "ir/function.h"

namespace treegion::region {

/** Limits governing Fig. 11 treegion formation with tail duplication. */
struct TailDupLimits
{
    /**
     * Maximum ratio of treegion ops to the ops of the distinct
     * original blocks it represents (the paper evaluates 2.0 and
     * 3.0).
     */
    double expansion_limit = 2.0;

    /** Maximum number of root-to-leaf paths per treegion (paper: 20). */
    size_t path_limit = 20;

    /**
     * Maximum incoming-edge count of a sapling eligible for
     * duplication (paper: 4). Merge points with no CFG successors
     * (function exits) are exempt.
     */
    size_t merge_limit = 4;

    /** Safety cap on blocks per region. */
    size_t max_region_blocks = 512;
};

/**
 * Clone @p sapling for the edge at @p slot of @p pred's terminator,
 * retarget that edge to the clone, and split profile weights.
 * Callers duplicate only merge points, so the original keeps at least
 * one predecessor and is never orphaned.
 *
 * @param fn the function (mutated)
 * @param pred source block of the edge being redirected
 * @param slot index into @p pred's terminator targets
 * @return the clone's block id
 */
ir::BlockId tailDuplicateEdge(ir::Function &fn, ir::BlockId pred,
                              size_t slot);

/**
 * Move @p flow units of profile weight from @p from onto the clone
 * @p to, scaling both blocks' outgoing edge weights so flow stays
 * conserved. Exposed separately for superblock formation, which
 * redirects several edges onto one clone.
 */
void transferProfileFlow(ir::Function &fn, ir::BlockId from,
                         ir::BlockId to, double flow);

} // namespace treegion::region

#endif // TREEGION_REGION_TAIL_DUPLICATION_H
