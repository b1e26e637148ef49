/**
 * @file
 * CompiledExec: the compiled backend's execution loop. Runs one
 * pre-lowered micro-op stream (sim/compile.hh) for one interpretation
 * scope — the module top level or a launch body — against the same
 * event core, components, and environments as the interpreter.
 *
 * Where BlockExec keeps a frame stack of (block, iterator) pairs and
 * re-derives everything per dispatch (handler-table lookup, scope-id
 * walk per operand, cost-table lookup), CompiledExec's whole state is
 * a program counter: control flow follows pre-computed pc targets,
 * operands are pre-resolved (hops, slot) references into env-chain
 * levels resolved once at construction, and the executing processor's
 * cost-class row is pre-folded into each record. Suspension (timed
 * ops, awaits, stream stalls) schedules a resume at the saved pc,
 * exactly mirroring the interpreter's suspend/resume protocol so event
 * ordering — and therefore traces and reports — is byte-identical.
 *
 * Fused and unfused streams run through the same loop and the same
 * per-opcode code: a fused group is a MOp::Fused header followed by
 * its member records, so a suspension inside a group simply saves the
 * pc of the member to resume at. The streams differ only in which
 * records count a dispatch (kFlagDispatch).
 */

#ifndef EQ_SIM_COMPILED_EXEC_HH
#define EQ_SIM_COMPILED_EXEC_HH

#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

class CompiledExec : public ExecBase {
  public:
    CompiledExec(Simulator::Impl &eng, Event *ev, Processor *proc,
                 const CompiledBlock &prog, EnvPtr env);

    /** Re-enter the stream at simulation time @p t (at the saved pc). */
    void resume(Cycles t) override;

  private:
    /** Env-chain levels resolved at construction: an exec's chain never
     *  changes during its life. Deeper references (absurd launch
     *  nesting) walk on from the last cached level. */
    static constexpr uint32_t kCachedLevels = 8;

    /** Resolve a pre-compiled value reference along the env chain. */
    SimValue &
    slotAt(const SlotRef &r) const
    {
        if (r.hops < kCachedLevels)
            return _levels[r.hops]->slots[r.slot];
        Env *e = _levels[kCachedLevels - 1];
        for (uint32_t h = r.hops - (kCachedLevels - 1); h; --h)
            e = e->parent.get();
        return e->slots[r.slot];
    }

    /** Operand @p i of record @p m; asserts it has a runtime binding
     *  (mirrors the interpreter's eval diagnostics). */
    const SimValue &
    arg(const MicroOp &m, unsigned i) const
    {
        const SimValue &s = slotAt(_prog.args[m.argsBegin + i]);
        eq_assert(!s.isNone(),
                  "use of value with no runtime binding (op '",
                  m.op ? m.op->name() : "?",
                  "'): likely a missing event dependency");
        return s;
    }

    SimValue &
    local(uint32_t slot) const
    {
        return _levels[0]->slots[slot];
    }

    void
    bindLocal(uint32_t slot, SimValue v) const
    {
        local(slot) = std::move(v);
    }

    /** Index operands land in a stack array (no per-access heap
     *  vector); ranks beyond this are rejected at elaboration by the
     *  type system long before execution. */
    static constexpr unsigned kMaxRank = 8;

    /** Index operands [first, nargs) of @p m, honoring the fuse pass's
     *  constant-index folding: pre-folded records read straight from
     *  the immediate pool, others gather from slots into @p buf. */
    const int64_t *
    recordIndices(const MicroOp &m, unsigned first, int64_t *buf) const
    {
        if (m.flags & kFlagImmIdx)
            return _prog.immIdx.data() + m.aux;
        const unsigned n = m.nargs - first;
        eq_assert(n <= kMaxRank, "index rank exceeds kMaxRank");
        for (unsigned i = 0; i < n; ++i)
            buf[i] = arg(m, first + i).asInt();
        return buf;
    }

    /** Pre-folded cost of @p m on the executing processor class. */
    Cycles
    costOf(const MicroOp &m) const
    {
        Cycles c = m.cost[_cls];
        if (c == CostModel::kDynamic)
            c = CostModel::linalgCycles(m.op);
        return c;
    }

    /** Account for an op occupying the processor from @p start for
     *  @p cycles; advances the pc. @return true when the stream must
     *  suspend (the op ends later than @p now *and* another event is
     *  pending first). Mirrors BlockExec::advanceAfter cycle-for-cycle,
     *  except that when this stream's wake-up would be the very next
     *  heap pop anyway, time advances in place (@p now is bumped to
     *  the op's end) and execution continues without the scheduler
     *  round-trip — the same pop the interpreter pays per timed op. */
    bool chargeAfter(const MicroOp &m, Cycles &now, Cycles start,
                     Cycles cycles);

    void finish(Cycles t);

    Simulator::Impl &_eng;
    Event *_event;    ///< null for the module top level
    Processor *_proc; ///< executing processor (root proc at top level)
    const CompiledBlock &_prog;
    EnvPtr _env;
    Env *_levels[kCachedLevels] = {}; ///< _env and its first ancestors
    unsigned _cls;      ///< pre-resolved cost-class row index
    uint32_t _pc = 0;
    /** Scratch equeue.op call frame: emptied after each call, so
     *  repeated extern records reuse the argument vector's capacity. */
    OpCall _scratch;
    std::vector<EventId> _spawned;
    bool _finished = false;
};

} // namespace sim
} // namespace eq

#endif // EQ_SIM_COMPILED_EXEC_HH
