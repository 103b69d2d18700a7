#include "workloads/profiler.h"

#include "vliw/interpreter.h"

namespace treegion::workloads {

ProfileSummary
profileFunction(ir::Function &fn, size_t mem_words,
                const ProfileOptions &options)
{
    ProfileSummary summary;
    vliw::SequentialProgram program(fn);
    vliw::ExecutionCounts counts = program.zeroCounts();
    std::vector<int64_t> memory(mem_words);
    for (int run = 0; run < options.runs; ++run) {
        fillInputMemory(memory,
                        options.input_seed * 0x9e3779b9ULL + run,
                        options.data_max);
        const vliw::ExecResult result =
            program.runCounted(memory, counts);
        if (result.completed) {
            ++summary.completed_runs;
            summary.total_ops += result.ops_executed;
        }
    }

    for (size_t d = 0; d < program.numBlocks(); ++d) {
        ir::BasicBlock &b = fn.block(program.blockId(d));
        b.setWeight(static_cast<double>(counts.block[d]));
        const size_t n_targets =
            b.hasTerminator() ? b.terminator().targets.size() : 0;
        b.edgeWeights().assign(n_targets, 0.0);
        for (size_t slot = 0; slot < n_targets; ++slot) {
            b.edgeWeights()[slot] = static_cast<double>(
                counts.edge[program.edgeBase(d) + slot]);
        }
    }
    return summary;
}

} // namespace treegion::workloads
