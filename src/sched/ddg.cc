#include "sched/ddg.h"

#include <algorithm>

#include "support/logging.h"

namespace treegion::sched {

using ir::BlockId;
using ir::Reg;
using support::Arena;
using support::ArenaVector;

namespace {

/** Visit cap for per-path DAG walks; beyond it we fall back to a
 * fully conservative total order. */
constexpr size_t kWalkBudget = 1u << 17;

/** Dense register numbering across the three classes. */
struct RegSpace
{
    uint32_t gprs = 0;
    uint32_t preds = 0;
    uint32_t btrs = 0;

    size_t
    size() const
    {
        return static_cast<size_t>(gprs) + preds + btrs;
    }

    /** @return dense key of @p r, or SIZE_MAX when out of range. */
    size_t
    key(const Reg &r) const
    {
        switch (r.cls) {
          case ir::RegClass::Gpr:
            return r.idx < gprs ? r.idx : SIZE_MAX;
          case ir::RegClass::Pred:
            return r.idx < preds ? gprs + r.idx : SIZE_MAX;
          case ir::RegClass::Btr:
            return r.idx < btrs ? static_cast<size_t>(gprs) + preds +
                                      r.idx
                                : SIZE_MAX;
        }
        return SIZE_MAX;
    }
};

} // namespace

Ddg::Ddg(const LoweredRegion &lowered, const RegionIndex &index,
         Arena &arena)
{
    build(lowered, index, arena);
}

Ddg::Ddg(const LoweredRegion &lowered)
    : owned_arena_(std::make_unique<Arena>())
{
    const RegionIndex index(lowered, *owned_arena_);
    build(lowered, index, *owned_arena_);
}

void
Ddg::build(const LoweredRegion &lowered, const RegionIndex &index,
           Arena &arena)
{
    const size_t n = lowered.ops.size();
    n_ = n;
    succs_ = arena.allocZeroed<EdgeList>(n);
    preds_ = arena.allocZeroed<EdgeList>(n);

    // Per-op latency cache (repeated opcodeInfo lookups add up).
    int32_t *lat = arena.allocArray<int32_t>(n);
    for (size_t i = 0; i < n; ++i)
        lat[i] = lowered.ops[i].op.latency();

    // Definition CSR keyed by dense register id. Full renaming gives
    // GPRs/BTRs a single def; wired-AND predicates have one
    // initializer plus one compare per condition, and hyperblock
    // merge copies give one guarded MOV per incoming edge (the guards
    // are mutually exclusive, so the writes commute and carry no
    // mutual ordering).
    RegSpace regs;
    for (size_t i = 0; i < n; ++i) {
        for (const Reg &d : lowered.ops[i].op.dsts) {
            switch (d.cls) {
              case ir::RegClass::Gpr:
                regs.gprs = std::max(regs.gprs, d.idx + 1);
                break;
              case ir::RegClass::Pred:
                regs.preds = std::max(regs.preds, d.idx + 1);
                break;
              case ir::RegClass::Btr:
                regs.btrs = std::max(regs.btrs, d.idx + 1);
                break;
            }
        }
    }
    uint32_t *def_off = arena.allocZeroed<uint32_t>(regs.size() + 1);
    for (size_t i = 0; i < n; ++i) {
        for (const Reg &d : lowered.ops[i].op.dsts)
            ++def_off[regs.key(d) + 1];
    }
    for (size_t r = 0; r < regs.size(); ++r)
        def_off[r + 1] += def_off[r];
    uint32_t *def_list = arena.allocArray<uint32_t>(def_off[regs.size()]);
    {
        uint32_t *fill = arena.allocArray<uint32_t>(regs.size());
        for (size_t r = 0; r < regs.size(); ++r)
            fill[r] = def_off[r];
        for (size_t i = 0; i < n; ++i) {
            for (const Reg &d : lowered.ops[i].op.dsts) {
                const size_t r = regs.key(d);
                TG_ASSERT(fill[r] == def_off[r] ||
                          d.cls == ir::RegClass::Pred ||
                          lowered.ops[i].op.guard.has_value());
                def_list[fill[r]++] = static_cast<uint32_t>(i);
            }
        }
    }
    auto defs_of = [&](const Reg &r) -> support::Span<uint32_t> {
        const size_t key = regs.key(r);
        if (key == SIZE_MAX)
            return {};
        return {def_list + def_off[key], def_off[key + 1] - def_off[key]};
    };

    // Value edges: sources and guards read after every producer.
    for (size_t i = 0; i < n; ++i) {
        const ir::Op &op = lowered.ops[i].op;
        op.forEachUsedReg([&](const Reg &use) {
            for (const uint32_t j : defs_of(use)) {
                if (j != i)
                    addEdge(arena, j, i, lat[j], false);
            }
        });
        // Accumulating predicate defines read-modify-write their
        // destination: they must follow the initializer (but not
        // their commuting siblings).
        if (op.opcode == ir::Opcode::CMPPA ||
            op.opcode == ir::Opcode::CMPPO) {
            const auto list = defs_of(op.dsts[0]);
            TG_ASSERT(!list.empty());
            TG_ASSERT(lowered.ops[list[0]].op.opcode ==
                          ir::Opcode::PSET ||
                      lowered.ops[list[0]].op.opcode ==
                          ir::Opcode::PCLR);
            addEdge(arena, list[0], i, 1, false);
        }
    }

    const uint32_t root_bi = index.indexOf(lowered.root);

    // Memory order edges along each internal path (DFS; a DAG may
    // visit merge blocks once per incoming path). The path state is a
    // single shared (last store, loads-since window) snapshot rolled
    // back on block exit — equivalent to the by-value state the walk
    // used to copy per path, minus the copies.
    size_t walk_budget = kWalkBudget;
    bool budget_hit = false;
    {
        ssize_t last_store = -1;
        ArenaVector<uint32_t> loads(arena);
        size_t window_start = 0;  // loads_since == loads[window..end)
        auto mem_walk = [&](auto &&self, uint32_t bi) -> void {
            if (walk_budget == 0) {
                budget_hit = true;
                return;
            }
            --walk_budget;
            const ssize_t saved_last = last_store;
            const size_t saved_window = window_start;
            const size_t saved_size = loads.size();
            for (const uint32_t i : index.opsIn(bi)) {
                const ir::Op &op = lowered.ops[i].op;
                if (op.isStore()) {
                    if (last_store >= 0)
                        addEdge(arena,
                                static_cast<size_t>(last_store), i, 0,
                                true);
                    for (size_t k = window_start; k < loads.size(); ++k)
                        addEdge(arena, loads[k], i, 0, true);
                    last_store = static_cast<ssize_t>(i);
                    window_start = loads.size();
                } else if (op.isLoad()) {
                    if (last_store >= 0)
                        addEdge(arena,
                                static_cast<size_t>(last_store), i, 0,
                                true);
                    loads.push_back(i);
                }
            }
            for (const uint32_t child : index.succs(bi))
                self(self, child);
            last_store = saved_last;
            window_start = saved_window;
            loads.resize(saved_size);
        };
        mem_walk(mem_walk, root_bi);
    }

    // Pinning edges: each guarded store precedes every exit branch
    // reachable at or below its block. Same rollback discipline; the
    // store set only ever grows along a path, so a size mark suffices.
    {
        ArenaVector<uint32_t> stores(arena);
        auto pin_walk = [&](auto &&self, uint32_t bi) -> void {
            if (walk_budget == 0) {
                budget_hit = true;
                return;
            }
            --walk_budget;
            const size_t saved_size = stores.size();
            for (const uint32_t i : index.opsIn(bi)) {
                if (lowered.ops[i].pinned)
                    stores.push_back(i);
            }
            for (const uint32_t e : index.exitsIn(bi)) {
                const size_t exit_op = lowered.exits[e].op_index;
                for (const uint32_t s : stores) {
                    if (s != exit_op)
                        addEdge(arena, s, exit_op, 0, false);
                }
            }
            for (const uint32_t child : index.succs(bi))
                self(self, child);
            stores.resize(saved_size);
        };
        pin_walk(pin_walk, root_bi);
    }

    if (budget_hit) {
        // Pathologically path-dense region: fall back to a total
        // order over all memory ops and exits in emission order.
        // Strictly more conservative, always correct.
        ssize_t last_mem = -1;
        for (size_t i = 0; i < n; ++i) {
            const ir::Op &op = lowered.ops[i].op;
            if (op.isMemory()) {
                if (last_mem >= 0)
                    addEdge(arena, static_cast<size_t>(last_mem), i, 0,
                            true);
                last_mem = static_cast<ssize_t>(i);
            }
        }
        for (const LoweredExit &exit : lowered.exits) {
            for (size_t i = 0; i < exit.op_index; ++i) {
                if (lowered.ops[i].pinned)
                    addEdge(arena, i, exit.op_index, 0, false);
            }
        }
    }

    // Exit data edges for reconciliation copies.
    for (const LoweredExit &exit : lowered.exits) {
        for (const ExitCopy &copy : exit.copies) {
            for (const uint32_t j : defs_of(copy.src)) {
                if (j != exit.op_index)
                    addEdge(arena, j, exit.op_index, lat[j] - 1, false);
            }
        }
    }

    // Extra deps (PBR -> branch).
    for (const auto &[from, to] : lowered.extra_deps)
        addEdge(arena, from, to, lat[from], false);

    // Dedupe parallel real edges, keeping the strongest constraint.
    auto dedupe = [](EdgeList &edges) {
        std::sort(edges.data, edges.data + edges.size,
                  [](const DdgEdge &a, const DdgEdge &b) {
                      if (a.other != b.other)
                          return a.other < b.other;
                      if (a.latency != b.latency)
                          return a.latency > b.latency;
                      return a.slot_ordered && !b.slot_ordered;
                  });
        DdgEdge *last = std::unique(
            edges.data, edges.data + edges.size,
            [](const DdgEdge &a, const DdgEdge &b) {
                return a.other == b.other &&
                       a.slot_ordered == b.slot_ordered;
            });
        edges.size = static_cast<uint32_t>(last - edges.data);
    };
    for (size_t i = 0; i < n; ++i) {
        dedupe(succs_[i]);
        dedupe(preds_[i]);
    }

    // Heights over the data DAG plus implicit control edges. An exit
    // branch controls every op homed strictly below its block (the
    // classic control+data DAG, in which a branch's height covers the
    // code it controls), so its height is at least one more than the
    // tallest such op. Node n + b of the DFS memoises "tallest op
    // strictly below block b" (-1: none), so those edges are never
    // stored. Height floors let a second pass raise specific nodes
    // without introducing cycles.
    const size_t nodes = n + index.numBlocks();
    int32_t *value = arena.allocArray<int32_t>(nodes);
    heights_ = value;
    int32_t *floors = arena.allocZeroed<int32_t>(n);
    int8_t *mark = arena.allocArray<int8_t>(nodes);
    auto compute_heights = [&]() {
        std::memset(mark, 0, nodes);  // 0 new, 1 open, 2 done
        auto visit = [&](auto &&self, size_t v) -> int {
            if (mark[v] == 2)
                return value[v];
            TG_ASSERT(mark[v] != 1 && "cycle in DDG");
            mark[v] = 1;
            int h = -1;
            if (v < n) {
                h = std::max(lat[v], floors[v]);
                for (const DdgEdge &e : succs(v))
                    h = std::max(h, e.latency + self(self, e.other));
                if (lowered.ops[v].kind == LoweredKind::ExitBranch) {
                    const int below = self(
                        self, n + index.indexOf(lowered.ops[v].home));
                    if (below >= 0)
                        h = std::max(h, below + 1);
                }
            } else {
                for (const uint32_t child : index.succs(
                         static_cast<uint32_t>(v - n))) {
                    for (const uint32_t op : index.opsIn(child))
                        h = std::max(h, self(self, op));
                    h = std::max(h, self(self, n + child));
                }
            }
            mark[v] = 2;
            value[v] = h;
            return h;
        };
        for (size_t i = 0; i < n; ++i)
            visit(visit, i);
    };
    compute_heights();

    // Loop recurrence criticality: a back-edge exit (an exit whose
    // target is the region's own root) gates the entire next
    // iteration, so its dependence height is floored at one more than
    // the tallest op in the region. The floor propagates through the
    // real data edges into whatever feeds the exit - typically the
    // induction update - which would otherwise look like dead-end
    // code to the dependence-height heuristic. (The paper performs no
    // software pipelining, but region schedulers still must not
    // stretch the recurrence.)
    bool any_backedge = false;
    int tallest = 0;
    for (size_t i = 0; i < n; ++i)
        tallest = std::max(tallest, static_cast<int>(heights_[i]));
    for (const LoweredExit &exit : lowered.exits) {
        if (!exit.is_ret && exit.target == lowered.root) {
            floors[exit.op_index] = tallest + 1;
            any_backedge = true;
        }
    }
    if (any_backedge)
        compute_heights();
}

} // namespace treegion::sched
