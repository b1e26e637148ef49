/**
 * @file
 * Superinstruction fusion over the compiled micro-op stream (ROADMAP
 * "Micro-op superinstructions"; cf. the lowered-representation
 * optimizations of compiled simulators like CVC, arXiv:1603.08059, and
 * Manticore, arXiv:2301.09413).
 *
 * After ModuleCompiler lowering (sim/compile.cc), a scope's stream
 * still pays one counted dispatch per IR op, a tensor materialization
 * per whole-cell read, and index gathering per memory access.
 * optimizeProgram() rewrites a CompiledBlock so that
 *
 *  - maximal runs of adjacent simple records (reads, writes, stream
 *    ops, extern calls, scalar arith, constants, event ops) become
 *    groups: a MOp::Fused header that counts the run's one dispatch,
 *    followed by the run's own records unchanged in kind (Read→Mac→
 *    Write PE bodies, Read→Write copies, StreamRead→compute→
 *    StreamWrite, ...). The executor runs members with the same code
 *    as any record — one implementation per opcode;
 *  - whole-cell reads whose every use is inside the group and provably
 *    scalar-compatible are flagged kFlagScalarize, eliminating the
 *    per-read tensor allocation;
 *  - index operands that are same-scope constants fold into immediate
 *    offsets (kFlagImmIdx), on grouped and standalone
 *    load/store/read/write records alike.
 *
 * Observational equivalence is preserved by construction: every
 * member executes exactly as the record it is, with the same per-op
 * cost accounting, memory and connection acquisition order,
 * suspend/resume decisions (a suspended group resumes at the member
 * the unfused stream would resume at), opsExecuted accounting, and
 * trace records. Reports, traces, and goldens are byte-identical; only
 * the dispatch count — surfaced as SimReport::dispatchCount — drops.
 */

#ifndef EQ_SIM_FUSE_HH
#define EQ_SIM_FUSE_HH

#include <memory>

#include "sim/compile.hh"

namespace eq {
namespace sim {

/** Statistics of one optimizeProgram() run (for tests/diagnostics). */
struct FuseStats {
    uint32_t groups = 0;       ///< group headers emitted
    uint32_t fusedRecords = 0; ///< original records they absorbed
    uint32_t scalarized = 0;   ///< cell reads flagged kFlagScalarize
    uint32_t immFolded = 0;    ///< records with folded indices
};

/**
 * Rewrite @p in with superinstruction fusion and stream optimizations.
 * @param in        the ModuleCompiler-lowered program
 * @param childProg maps each in.childProgs entry to the program the
 *                  optimized block should pin on its Launch records
 *                  (the optimized child); identity when fusion of
 *                  children is disabled
 * @param stats     optional out-param
 */
std::unique_ptr<CompiledBlock>
optimizeProgram(const CompiledBlock &in,
                const std::vector<const CompiledBlock *> &childProgs,
                FuseStats *stats = nullptr);

} // namespace sim
} // namespace eq

#endif // EQ_SIM_FUSE_HH
