/**
 * @file
 * The superinstruction fusion pass (see fuse.hh for the contract).
 *
 * The pass is a single walk over a lowered CompiledBlock that
 *
 *  1. folds constant index operands (slots defined by arith.constant in
 *     the same scope) into immediate offsets on load/store/read/write
 *     records,
 *  2. groups maximal runs of adjacent fusible records: a MOp::Fused
 *     header, which counts the run's one dispatch, followed by the
 *     run's records, which count only their ops, and
 *  3. inside each run, proves which whole-cell reads may bind a scalar
 *     instead of materializing a 1-element tensor: the read's result
 *     must be used only later in the same run, and every consumer must
 *     treat "1-element tensor" and "the scalar it holds" identically
 *     (cell/stream writes do by construction; extern calls only for
 *     whitelisted signatures such as the built-in "mac").
 *
 * The rewritten stream is relocatable like the input: loop Begin/End
 * targets are remapped through an old-pc -> new-pc table (a grouped
 * record maps to its group's header). Branch targets always land on
 * run heads because every control record is non-fusible, so a run can
 * never straddle one.
 */

#include "sim/fuse.hh"

#include <algorithm>

#include "sim/engine_impl.hh"

namespace eq {
namespace sim {

namespace {

/** Records a superinstruction may absorb: every position-independent
 *  record — compute, data motion, and event ops whose semantics never
 *  read or manipulate the pc. Control flow (loops, nested modules,
 *  Halt), elaboration (structure ops run once, cold), and linalg
 *  keep their own records. Return is
 *  also absorbable, but only as a run terminator (handled by the run
 *  scanner, not here, since nothing may follow it in a group). */
bool
isFusible(const MicroOp &m)
{
    switch (m.code) {
    case MOp::Constant:
    case MOp::AddI:
    case MOp::SubI:
    case MOp::MulI:
    case MOp::DivSI:
    case MOp::RemSI:
    case MOp::AddF:
    case MOp::MulF:
    case MOp::Load:
    case MOp::Store:
    case MOp::StreamRead:
    case MOp::StreamWrite:
    case MOp::Extern:
    case MOp::ControlStart:
    case MOp::ControlAnd:
    case MOp::ControlOr:
    case MOp::Launch:
    case MOp::Memcpy:
    case MOp::Await:
        return true;
    case MOp::Read:
    case MOp::Write:
        // Connection-carrying variants fuse too: a grouped record
        // runs the same channel acquire/transfer accounting as an
        // unfused one, suspending mid-group on a stall exactly like
        // any other costed record.
        return true;
    default:
        return false;
    }
}

/** Extern signatures proven to treat a whole-cell read's 1-element
 *  tensor and the scalar it holds identically (see scalarOf in
 *  opfunctions.cc). User-registered signatures are conservatively
 *  excluded — they may distinguish the two. */
bool
scalarOkExtern(ir::Operation *op)
{
    return op && op->strAttr("signature") == "mac";
}

/** One use of a slot inside the program being optimized. */
struct UseSite {
    uint32_t pc;  ///< record index of the user
    uint32_t rel; ///< operand position within that record
};

/** Mark every slot of the scope at @p depth hops that @p prog (a
 *  descendant launch body) or its own descendants reference — such
 *  slots escape the parent program and must keep their materialized
 *  values. */
void
markDescendantUses(const CompiledBlock &prog, uint32_t depth,
                   std::vector<char> &used)
{
    for (const SlotRef &r : prog.args)
        if (r.hops == depth && r.slot < used.size())
            used[r.slot] = 1;
    // Captures are creator-relative (one level shallower).
    for (const auto &cap : prog.captures)
        if (cap.src.hops == depth - 1 && cap.src.slot < used.size())
            used[cap.src.slot] = 1;
    for (const CompiledBlock *c : prog.childProgs)
        markDescendantUses(*c, depth + 1, used);
}

class Fuser {
  public:
    Fuser(const CompiledBlock &in,
          const std::vector<const CompiledBlock *> &childProgs)
        : _in(in)
    {
        _out = std::make_unique<CompiledBlock>();
        _out->args = in.args;
        _out->consts = in.consts;
        _out->resultPool = in.resultPool;
        _out->strings = in.strings;
        _out->forLoops = in.forLoops;
        _out->parLoops = in.parLoops;
        _out->captures = in.captures;
        _out->childProgs = childProgs;
        _out->root = in.root;
        _out->scopeId = in.scopeId;
        _out->numSlots = in.numSlots;
        _out->maxHops = in.maxHops;
        analyze();
    }

    std::unique_ptr<CompiledBlock>
    run(FuseStats &stats)
    {
        const size_t n = _in.code.size();
        std::vector<uint32_t> oldToNew(n + 1, 0);
        size_t i = 0;
        while (i < n) {
            size_t j = i;
            while (j < n && isFusible(_in.code[j]))
                ++j;
            // A Return may close a group (it terminates the scope, so
            // nothing can follow it inside one).
            if (j > i && j < n && _in.code[j].code == MOp::Return)
                ++j;
            if (j - i >= 2) {
                for (size_t p = i; p < j; ++p)
                    oldToNew[p] =
                        static_cast<uint32_t>(_out->code.size());
                emitGroup(i, j, stats);
                i = j;
                continue;
            }
            // Too short to fuse: copy records through,
            // still applying the standalone constant-index fold.
            const size_t copy_end = std::max(j, i + 1);
            for (; i < copy_end; ++i) {
                oldToNew[i] = static_cast<uint32_t>(_out->code.size());
                MicroOp m = _in.code[i];
                foldRecordIndices(m, stats);
                _out->code.push_back(std::move(m));
            }
        }
        oldToNew[n] = static_cast<uint32_t>(_out->code.size());

        // Relocate loop branch targets into the rewritten stream.
        for (MicroOp &m : _out->code) {
            switch (m.code) {
            case MOp::ForBegin:
            case MOp::ForEnd:
            case MOp::ParBegin:
            case MOp::ParEnd:
                m.target = oldToNew[m.target];
                break;
            default:
                break;
            }
        }
        return std::move(_out);
    }

  private:
    /** First index-operand position of a foldable record, or 0. */
    static unsigned
    indexOperandsBegin(const MicroOp &m)
    {
        switch (m.code) {
        case MOp::Load:
            return 1;
        case MOp::Store:
            return 2;
        case MOp::Read:
            return m.hasConn() ? 2 : 1; // conn (if any) precedes indices
        case MOp::Write:
            return m.hasConn() ? 3 : 2;
        default:
            return 0;
        }
    }

    /** Per-slot constant values and use sites of the input program. */
    void
    analyze()
    {
        _constOf.assign(_in.numSlots, -1);
        _escapes.assign(_in.numSlots, 0);
        _uses.assign(_in.numSlots, {});
        for (uint32_t pc = 0; pc < _in.code.size(); ++pc) {
            const MicroOp &m = _in.code[pc];
            if (m.code == MOp::Constant && m.result != kNoSlot)
                _constOf[m.result] = static_cast<int64_t>(m.aux);
            for (uint32_t a = 0; a < m.nargs; ++a) {
                const SlotRef &r = _in.args[m.argsBegin + a];
                if (r.hops == 0 && r.slot < _uses.size())
                    _uses[r.slot].push_back(UseSite{pc, a});
            }
        }
        for (const CompiledBlock *c : _in.childProgs)
            markDescendantUses(*c, 1, _escapes);
    }

    /** Is the operand a same-scope slot holding a known int constant? */
    bool
    constIntOperand(const SlotRef &r, int64_t *value) const
    {
        if (r.hops != 0 || r.slot >= _constOf.size())
            return false;
        int64_t c = _constOf[r.slot];
        if (c < 0)
            return false;
        const SimValue &v = _in.consts[static_cast<size_t>(c)];
        if (!v.isInt())
            return false;
        *value = v.asInt();
        return true;
    }

    /** Fold all-constant index operands of @p m into the immediate
     *  pool (aux becomes the pool offset; a record with kFlagImmIdx
     *  never reads its index slots). */
    void
    foldRecordIndices(MicroOp &m, FuseStats &stats)
    {
        unsigned first = indexOperandsBegin(m);
        if (first == 0 || m.nargs <= first)
            return;
        int64_t vals[16];
        unsigned nidx = m.nargs - first;
        if (nidx > 16)
            return;
        for (unsigned i = 0; i < nidx; ++i)
            if (!constIntOperand(_in.args[m.argsBegin + first + i],
                                 &vals[i]))
                return;
        m.aux = static_cast<uint32_t>(_out->immIdx.size());
        m.flags |= kFlagImmIdx;
        for (unsigned i = 0; i < nidx; ++i)
            _out->immIdx.push_back(vals[i]);
        ++stats.immFolded;
    }

    /** May the whole-cell read at @p pc (result @p slot) skip tensor
     *  materialization? Every use must come later inside [pc+1, end)
     *  and treat a 1-element tensor and its scalar identically. */
    bool
    mayScalarize(uint32_t pc, uint32_t slot, uint32_t end) const
    {
        if (slot >= _uses.size() || _escapes[slot])
            return false;
        for (const UseSite &u : _uses[slot]) {
            if (u.pc <= pc || u.pc >= end)
                return false;
            const MicroOp &user = _in.code[u.pc];
            switch (user.code) {
            case MOp::Write:
                // Only the value operand of a whole-cell write.
                if (user.hasConn() || user.nargs != 2 || u.rel != 0)
                    return false;
                break;
            case MOp::StreamWrite:
                if (u.rel != 0)
                    return false;
                break;
            case MOp::Extern:
                if (!scalarOkExtern(user.op))
                    return false;
                break;
            default:
                return false;
            }
        }
        return true;
    }

    void
    emitGroup(size_t i, size_t j, FuseStats &stats)
    {
        MicroOp header;
        header.code = MOp::Fused;
        header.flags = kFlagDispatch;
        header.op = _in.code[i].op;
        _out->code.push_back(header);
        for (size_t p = i; p < j; ++p) {
            MicroOp m = _in.code[p];
            // The header counts the group's dispatch; members count
            // their ops only (opsExecuted parity).
            m.flags &= ~kFlagDispatch;
            foldRecordIndices(m, stats);
            if (m.code == MOp::Read && !m.hasConn() && m.nargs == 1 &&
                m.result != kNoSlot &&
                mayScalarize(static_cast<uint32_t>(p), m.result,
                             static_cast<uint32_t>(j))) {
                m.flags |= kFlagScalarize;
                ++stats.scalarized;
            }
            _out->code.push_back(m);
        }
        ++stats.groups;
        stats.fusedRecords += static_cast<uint32_t>(j - i);
    }

    const CompiledBlock &_in;
    std::unique_ptr<CompiledBlock> _out;
    std::vector<int64_t> _constOf;    ///< slot -> consts index (-1)
    std::vector<char> _escapes;       ///< slot referenced by descendants
    std::vector<std::vector<UseSite>> _uses;
};

} // namespace

std::unique_ptr<CompiledBlock>
optimizeProgram(const CompiledBlock &in,
                const std::vector<const CompiledBlock *> &childProgs,
                FuseStats *stats)
{
    eq_assert(childProgs.size() == in.childProgs.size(),
              "fusion child-program mapping must be index-aligned");
    FuseStats local;
    Fuser fuser(in, childProgs);
    auto out = fuser.run(local);
    if (stats)
        *stats = local;
    return out;
}

const CompiledBlock &
Simulator::Impl::fusedProgramFor(ir::Block *root)
{
    auto it = fusedPrograms.find(root);
    if (it != fusedPrograms.end())
        return *it->second;
    const CompiledBlock &orig = programFor(root);
    // Optimize launch bodies first so this scope's Launch records pin
    // the optimized child programs on their events.
    std::vector<const CompiledBlock *> children;
    children.reserve(orig.childProgs.size());
    for (const CompiledBlock *c : orig.childProgs)
        children.push_back(&fusedProgramFor(c->root));
    auto opt = optimizeProgram(orig, children);
    return *fusedPrograms.emplace(root, std::move(opt)).first->second;
}

} // namespace sim
} // namespace eq
