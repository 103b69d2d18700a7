/**
 * @file
 * Region formation entry points for all four region types.
 *
 * - formBasicBlockRegions: one region per block (baseline).
 * - formSlrs: simple linear regions — superblock-style growth along
 *   the highest-weight successor, but no tail duplication, so growth
 *   stops at merge points (paper Section 3).
 * - formTreegions: Fig. 2 — grow trees over every non-merge
 *   successor, no profile needed, no CFG mutation.
 * - formTreegionsTailDup: Fig. 11 — treegions expanded by tail
 *   duplication under code-expansion / path-count / merge-count
 *   limits. Mutates the CFG.
 * - formSuperblocks: profile-guided traces grown along the hottest
 *   successor with tail duplication of merge points. Mutates the CFG.
 */

#ifndef TREEGION_REGION_FORMATION_H
#define TREEGION_REGION_FORMATION_H

#include "region/region.h"
#include "region/tail_duplication.h"

namespace treegion::region {

/** One region per basic block. */
RegionSet formBasicBlockRegions(ir::Function &fn);

/** Simple linear regions (no tail duplication). */
RegionSet formSlrs(ir::Function &fn);

/** Treegions without tail duplication (Fig. 2). */
RegionSet formTreegions(ir::Function &fn);

/**
 * Treegions with tail duplication (Fig. 11). Mutates @p fn: clones
 * blocks and splits profile flow.
 */
RegionSet formTreegionsTailDup(ir::Function &fn,
                               const TailDupLimits &limits);

/** Options for superblock formation. */
struct SuperblockOptions
{
    /**
     * Stop duplicating through a merge when the best outgoing edge's
     * profile weight is not above this (cold code is not worth
     * duplicating).
     */
    double cold_edge_weight = 0.0;

    /**
     * Classic trace-selection likelihood threshold: growth through a
     * merge point stops unless the best successor edge carries at
     * least this fraction of the block's flow.
     */
    double min_edge_prob = 0.55;

    /**
     * Hwu/Chang mutual-most-likely trace growth: absorb a merge
     * point only when the trace's edge into it is its strongest
     * incoming edge.
     */
    bool mutual_most_likely = true;

    /** Maximum blocks per superblock. */
    size_t max_blocks = 32;
};

/**
 * Superblocks: hottest-successor traces with tail duplication of
 * merge points. Mutates @p fn.
 */
RegionSet formSuperblocks(ir::Function &fn,
                          const SuperblockOptions &options = {});

/** Options for hyperblock formation (the paper's future work). */
struct HyperblockOptions
{
    /**
     * Mahlke-style block selection: a block joins the hyperblock only
     * if its weight is at least this fraction of the root's.
     */
    double min_weight_ratio = 0.05;

    /** Maximum blocks per hyperblock. */
    size_t max_blocks = 48;

    /** Maximum distinct root-to-leaf paths through the DAG. */
    size_t path_limit = 64;
};

/**
 * Hyperblocks: single-entry acyclic DAG regions that absorb merge
 * points whose predecessors are all inside (if-conversion regions).
 * Does not mutate @p fn — merges are handled by predication rather
 * than duplication.
 */
RegionSet formHyperblocks(ir::Function &fn,
                          const HyperblockOptions &options = {});

} // namespace treegion::region

#endif // TREEGION_REGION_FORMATION_H
