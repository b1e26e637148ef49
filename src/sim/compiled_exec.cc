/**
 * @file
 * The compiled backend's dispatch loop: a dense jump over the
 * micro-op stream (the switch below lowers to a computed jump through
 * an opcode-indexed table — the function-pointer-table equivalent,
 * but with the loop state kept in registers across micro-ops).
 *
 * Each opcode has exactly one case, which serves unfused records and
 * fused group members alike (a group is a MOp::Fused header followed
 * by its members; the fusion specializations — immediate indices,
 * scalarized cell reads — are record flags the case honours). Every
 * case mirrors the corresponding interpreter handler exactly — same
 * event creation order, same memory/connection acquisition sequence,
 * same trace records, same opsExecuted accounting — so the two
 * backends are byte-identical on goldens; only the per-op overhead
 * differs. Cold semantics shared with the interpreter live in
 * elaborate.cc (structure ops) and handlers.cc (data-motion cores,
 * linalg functional semantics).
 */

#include "sim/compiled_exec.hh"

#include <algorithm>

namespace eq {
namespace sim {

CompiledExec::CompiledExec(Simulator::Impl &eng, Event *ev,
                           Processor *proc, const CompiledBlock &prog,
                           EnvPtr env)
    : _eng(eng), _event(ev), _proc(proc), _prog(prog), _env(std::move(env)),
      _cls(proc ? static_cast<unsigned>(proc->costClass())
                : static_cast<unsigned>(CostClass::Root))
{
    eq_assert(_env->scopeId == prog.scopeId,
              "compiled program bound to a foreign environment");
    Env *e = _env.get();
    const uint32_t levels = std::min(prog.maxHops + 1, kCachedLevels);
    for (uint32_t h = 0; h < levels; ++h, e = e->parent.get())
        _levels[h] = e;
}

bool
CompiledExec::chargeAfter(const MicroOp &m, Cycles &now, Cycles start,
                          Cycles cycles)
{
    Cycles end = start + cycles;
    if (_proc) {
        _proc->recordBusy(cycles);
        _proc->recordOp();
        if (_eng.traceData.enabled()) {
            if (start > now)
                _eng.recordTrace("stall", _proc, now, start - now,
                                 "stall");
            if (cycles > 0)
                _eng.recordTrace(*m.label, _proc, start, cycles);
        }
    }
    _eng.noteActivity(end);
    ++_pc;
    if (end > now) {
        // Time-advance fast path: suspending would push a resume that
        // the scheduler pops immediately (every pending item is
        // strictly later, and ties at `end` must run older-first). In
        // that case nothing can interleave, so advance the clock in
        // place and keep executing. Relative ordering of all other
        // heap items is untouched, so traces stay byte-identical.
        if (_eng.nothingPendingBefore(end)) {
            _eng.now = end;
            now = end;
            return false;
        }
        _eng.scheduleAt(end, [this, end] { resume(end); });
        return true;
    }
    return false;
}

void
CompiledExec::finish(Cycles t)
{
    if (_finished)
        return;
    _finished = true;
    _eng.noteActivity(t);
    if (_event)
        _eng.finishLaunch(_event, _proc, t);
    // The exec object lives in Impl::execs until the next reset, but
    // its environment is dead here — release it so the pool can hand
    // it to the next launch.
    _env.reset();
}

void
CompiledExec::resume(Cycles t)
{
    eq_assert(!_finished, "resuming finished block");
    Cycles now = t;
    _eng.now = std::max(_eng.now, t);
    const MicroOp *code = _prog.code.data();
    for (;;) {
        const MicroOp &m = code[_pc];
        _eng.dispatchCount += m.dispatches();
        if (m.counts() && ++_eng.opsExecuted > _eng.opts.maxOps)
            throwBudgetExceeded(_eng.opts.maxOps);
        switch (m.code) {
        // --- control flow -------------------------------------------
        case MOp::ForBegin: {
            const auto &fl = _prog.forLoops[m.aux];
            if (fl.lb >= fl.ub) {
                _pc = m.target;
                continue;
            }
            local(fl.ivSlot) = SimValue::ofInt(fl.lb);
            ++_pc;
            continue;
        }
        case MOp::ForEnd: {
            const auto &fl = _prog.forLoops[m.aux];
            int64_t iv = local(fl.ivSlot).asInt() + fl.step;
            if (iv < fl.ub) {
                local(fl.ivSlot) = SimValue::ofInt(iv);
                _pc = m.target;
            } else {
                ++_pc;
            }
            continue;
        }
        case MOp::ParBegin: {
            const auto &pl = _prog.parLoops[m.aux];
            bool empty = pl.lbs.empty();
            for (size_t i = 0; i < pl.lbs.size(); ++i)
                if (pl.lbs[i] >= pl.ubs[i])
                    empty = true;
            if (empty) {
                _pc = m.target;
                continue;
            }
            for (size_t i = 0; i < pl.lbs.size(); ++i)
                local(pl.ivSlots[i]) = SimValue::ofInt(pl.lbs[i]);
            ++_pc;
            continue;
        }
        case MOp::ParEnd: {
            const auto &pl = _prog.parLoops[m.aux];
            // Lexicographic increment of the induction vector, kept
            // live in the slots themselves.
            int dim = static_cast<int>(pl.ivSlots.size()) - 1;
            while (dim >= 0) {
                int64_t v = local(pl.ivSlots[dim]).asInt() +
                            pl.steps[dim];
                if (v < pl.ubs[dim]) {
                    local(pl.ivSlots[dim]) = SimValue::ofInt(v);
                    break;
                }
                local(pl.ivSlots[dim]) = SimValue::ofInt(pl.lbs[dim]);
                --dim;
            }
            if (dim >= 0)
                _pc = m.target;
            else
                ++_pc;
            continue;
        }
        case MOp::Yield:
            // Loop back-edge: charge the cost, fall through to the
            // loop-End record.
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::NestedModule:
            // Counted like any dispatch; the body is inlined next.
            ++_pc;
            continue;
        case MOp::Halt:
            finish(now);
            return;

        // --- scalar compute -----------------------------------------
        case MOp::Constant:
            bindLocal(m.result, _prog.consts[m.aux]);
            ++_pc;
            continue;
        case MOp::AddI:
            bindLocal(m.result, SimValue::ofInt(arg(m, 0).asInt() +
                                                arg(m, 1).asInt()));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::SubI:
            bindLocal(m.result, SimValue::ofInt(arg(m, 0).asInt() -
                                                arg(m, 1).asInt()));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::MulI:
            bindLocal(m.result, SimValue::ofInt(arg(m, 0).asInt() *
                                                arg(m, 1).asInt()));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::DivSI: {
            int64_t lhs = arg(m, 0).asInt();
            int64_t rhs = arg(m, 1).asInt();
            bindLocal(m.result,
                      SimValue::ofInt(rhs == 0 ? 0 : lhs / rhs));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        }
        case MOp::RemSI: {
            int64_t lhs = arg(m, 0).asInt();
            int64_t rhs = arg(m, 1).asInt();
            bindLocal(m.result,
                      SimValue::ofInt(rhs == 0 ? 0 : lhs % rhs));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        }
        case MOp::AddF:
            bindLocal(m.result, SimValue::ofFloat(arg(m, 0).asFloat() +
                                                  arg(m, 1).asFloat()));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::MulF:
            bindLocal(m.result, SimValue::ofFloat(arg(m, 0).asFloat() *
                                                  arg(m, 1).asFloat()));
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        case MOp::ArithBad:
            eq_fatal("unsupported arith op '", m.op->name(), "'");

        // --- affine memory ------------------------------------------
        case MOp::Load: {
            BufferObj *buf = arg(m, 0).asBuffer();
            int64_t idxbuf[kMaxRank];
            const unsigned nidx = m.nargs - 1;
            const int64_t *idx = recordIndices(m, 1, idxbuf);
            int64_t off = buf->data->offset(idx, nidx);
            Cycles start = _eng.bufferAccessStart(
                buf, nullptr, /*is_write=*/false, 1,
                (buf->data->elemBits + 7) / 8, now);
            bindLocal(m.result, SimValue::ofInt(buf->data->data[off]));
            if (chargeAfter(m, now, start, costOf(m)))
                return;
            continue;
        }
        case MOp::Store: {
            BufferObj *buf = arg(m, 1).asBuffer();
            int64_t idxbuf[kMaxRank];
            const unsigned nidx = m.nargs - 2;
            const int64_t *idx = recordIndices(m, 2, idxbuf);
            int64_t off = buf->data->offset(idx, nidx);
            Cycles start = _eng.bufferAccessStart(
                buf, nullptr, /*is_write=*/true, 1,
                (buf->data->elemBits + 7) / 8, now);
            buf->data->data[off] = arg(m, 0).asInt();
            if (chargeAfter(m, now, start, costOf(m)))
                return;
            continue;
        }

        // --- linalg --------------------------------------------------
        case MOp::LinalgConv: {
            Cycles cycles = costOf(m);
            _eng.linalgConvCompute(m.op, arg(m, 0).asBuffer(),
                                   arg(m, 1).asBuffer(),
                                   arg(m, 2).asBuffer());
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }
        case MOp::LinalgFill: {
            Cycles cycles = costOf(m);
            _eng.linalgFillCompute(m.op, arg(m, 0).asBuffer());
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }
        case MOp::LinalgMatmul: {
            Cycles cycles = costOf(m);
            _eng.linalgMatmulCompute(arg(m, 0).asBuffer(),
                                     arg(m, 1).asBuffer(),
                                     arg(m, 2).asBuffer());
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }
        case MOp::LinalgOther:
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;

        // --- EQueue data movement -----------------------------------
        case MOp::Read: {
            BufferObj *buf = arg(m, 0).asBuffer();
            Connection *conn =
                m.hasConn() ? arg(m, 1).asConnection() : nullptr;
            const unsigned idx0 = m.hasConn() ? 2 : 1;
            const unsigned nidx = m.nargs - idx0;
            int64_t bytes;
            int64_t words;
            if (nidx == 0 && (m.flags & kFlagScalarize) &&
                buf->data->numElements() == 1) {
                // All uses proven in-group and scalar-compatible: bind
                // the cell's value directly — byte counts and consumer
                // behavior match the 1-element tensor materialized
                // otherwise.
                bytes = (buf->data->elemBits + 7) / 8;
                words = 1;
                bindLocal(m.result, SimValue::ofInt(buf->data->data[0]));
            } else if (nidx == 0) {
                auto copy = std::make_shared<Tensor>(*buf->data);
                bytes = copy->sizeBytes();
                words = buf->data->numElements();
                bindLocal(m.result, SimValue::ofTensor(copy));
            } else {
                int64_t idxbuf[kMaxRank];
                const int64_t *idx = recordIndices(m, idx0, idxbuf);
                bytes = (buf->data->elemBits + 7) / 8;
                words = 1;
                bindLocal(
                    m.result,
                    SimValue::ofInt(
                        buf->data
                            ->data[buf->data->offset(idx, nidx)]));
            }
            Cycles start = _eng.bufferAccessStart(
                buf, conn, /*is_write=*/false, words, bytes, now);
            if (chargeAfter(m, now, start, costOf(m)))
                return;
            continue;
        }
        case MOp::Write: {
            const SimValue &val = arg(m, 0);
            BufferObj *buf = arg(m, 1).asBuffer();
            Connection *conn =
                m.hasConn() ? arg(m, 2).asConnection() : nullptr;
            const unsigned idx0 = m.hasConn() ? 3 : 2;
            const unsigned nidx = m.nargs - idx0;
            int64_t bytes;
            if (nidx == 0 && val.isTensor()) {
                auto src = val.asTensor();
                int64_t n = std::min(src->numElements(),
                                     buf->data->numElements());
                std::copy_n(src->data.begin(), n,
                            buf->data->data.begin());
                bytes = n * ((buf->data->elemBits + 7) / 8);
            } else if (nidx > 0) {
                int64_t idxbuf[kMaxRank];
                const int64_t *idx = recordIndices(m, idx0, idxbuf);
                buf->data->data[buf->data->offset(idx, nidx)] =
                    val.asInt();
                bytes = (buf->data->elemBits + 7) / 8;
            } else {
                // Scalar into rank-0/1 buffer: write element 0.
                buf->data->data[0] = val.asInt();
                bytes = (buf->data->elemBits + 7) / 8;
            }
            int64_t words = nidx == 0 && val.isTensor()
                                ? val.asTensor()->numElements()
                                : 1;
            Cycles start = _eng.bufferAccessStart(
                buf, conn, /*is_write=*/true, words, bytes, now);
            if (chargeAfter(m, now, start, costOf(m)))
                return;
            continue;
        }
        case MOp::StreamRead: {
            StreamFifo *fifo = arg(m, 0).asStream();
            size_t elems = static_cast<size_t>(m.imm);
            Cycles ready = fifo->readyTime(elems);
            if (ready == StreamFifo::kNoReadyTime) {
                // Not enough elements yet: wake (and re-execute this
                // record) when the producer pushes.
                _eng.streamWaiters[fifo].push_back(
                    [this] { resume(_eng.now); });
                return;
            }
            if (ready > now) {
                // Same fast path as chargeAfter: re-execute this
                // record at `ready` in place when nothing can
                // interleave before it.
                if (_eng.nothingPendingBefore(ready)) {
                    _eng.now = ready;
                    now = ready;
                    continue;
                }
                _eng.scheduleAt(ready, [this, ready] { resume(ready); });
                return;
            }
            auto vals = fifo->pop(elems);
            auto tensor = Tensor::zeros({static_cast<int64_t>(elems)},
                                        fifo->dataBits());
            tensor->data = std::move(vals);
            bindLocal(m.result, SimValue::ofTensor(tensor));
            // Reader-side connection records bytes for profiling; the
            // arrival rate was already shaped by the producer (§VII-E).
            if (m.hasConn()) {
                Connection *conn = arg(m, 1).asConnection();
                int64_t bytes = tensor->sizeBytes();
                conn->recordTransfer(
                    true, now,
                    now + std::max<Cycles>(conn->transferCycles(bytes),
                                           1),
                    bytes);
            }
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        }
        case MOp::StreamWrite: {
            const SimValue &val = arg(m, 0);
            StreamFifo *fifo = arg(m, 1).asStream();
            Connection *conn =
                m.hasConn() ? arg(m, 2).asConnection() : nullptr;
            std::vector<int64_t> elems;
            if (val.isTensor())
                elems = val.asTensor()->data;
            else
                elems.push_back(val.asInt());
            _eng.streamPush(fifo, conn, elems, now);
            if (chargeAfter(m, now, now, costOf(m)))
                return;
            continue;
        }

        // --- events --------------------------------------------------
        case MOp::ControlStart: {
            Event *ev = _eng.newEvent(Event::Kind::Start, now);
            _eng.completeEvent(ev, now);
            bindLocal(m.result, SimValue::ofEvent(ev->id));
            ++_pc;
            continue;
        }
        case MOp::ControlAnd:
        case MOp::ControlOr: {
            bool is_and = m.code == MOp::ControlAnd;
            Event *ev = _eng.newEvent(
                is_and ? Event::Kind::And : Event::Kind::Or, now);
            std::vector<EventId> deps;
            deps.reserve(m.nargs);
            for (unsigned i = 0; i < m.nargs; ++i)
                deps.push_back(arg(m, i).asEvent());
            ev->deps = deps;
            bindLocal(m.result, SimValue::ofEvent(ev->id));
            Event *evp = ev;
            Simulator::Impl *eng = &_eng;
            auto done = [eng, evp](Cycles dt) {
                eng->completeEvent(evp, dt);
            };
            if (is_and)
                _eng.whenAllDone(deps, done);
            else
                _eng.whenAnyDone(deps, done);
            ++_pc;
            continue;
        }
        case MOp::Launch: {
            unsigned ndeps = static_cast<unsigned>(m.imm);
            Event *ev = _eng.newEvent(Event::Kind::Launch, now);
            for (unsigned i = 0; i < ndeps; ++i)
                ev->deps.push_back(arg(m, i).asEvent());
            ev->op = m.op;
            ev->proc =
                static_cast<Processor *>(arg(m, ndeps).asComponent());
            ev->creatorEnv = _env;
            ev->bodyProg = _prog.childProgs[m.aux];
            bindLocal(m.result, SimValue::ofEvent(ev->id));
            _spawned.push_back(ev->id);
            _eng.enqueueOnProcessor(ev, now);
            ++_pc;
            continue;
        }
        case MOp::Memcpy: {
            Event *ev = _eng.newEvent(Event::Kind::Memcpy, now);
            ev->deps.push_back(arg(m, 0).asEvent());
            ev->op = m.op;
            ev->src = arg(m, 1).asBuffer();
            ev->dst = arg(m, 2).asBuffer();
            ev->proc =
                static_cast<Processor *>(arg(m, 3).asComponent());
            if (m.hasConn())
                ev->conn = arg(m, 4).asConnection();
            ev->creatorEnv = _env;
            bindLocal(m.result, SimValue::ofEvent(ev->id));
            _spawned.push_back(ev->id);
            _eng.enqueueOnProcessor(ev, now);
            ++_pc;
            continue;
        }
        case MOp::Await: {
            if (m.nargs == 0) {
                // Await-all fast path (see BlockExec::execAwait):
                // done events are timing-irrelevant (doneTime <= now),
                // so compact the spawned list to the pending tail and
                // subscribe to exactly those in one pass.
                size_t w = 0;
                for (EventId id : _spawned)
                    if (!_eng.event(id)->done)
                        _spawned[w++] = id;
                _spawned.resize(w);
                ++_pc;
                if (w == 0)
                    continue;
                if (w == 1) {
                    _eng.event(_spawned[0])->onDone.push_back(
                        [this, now](Cycles dt) {
                            resume(std::max(now, dt));
                        });
                    return;
                }
                auto state =
                    std::make_shared<std::pair<size_t, Cycles>>(w, 0);
                for (EventId id : _spawned)
                    _eng.event(id)->onDone.push_back(
                        [this, now, state](Cycles dt) {
                            state->second =
                                std::max(state->second, dt);
                            if (--state->first == 0)
                                resume(std::max(now, state->second));
                        });
                return;
            }
            std::vector<EventId> ids;
            ids.reserve(m.nargs);
            for (unsigned i = 0; i < m.nargs; ++i)
                ids.push_back(arg(m, i).asEvent());
            bool all_done = true;
            Cycles max_t = now;
            for (EventId id : ids) {
                Event *ev = _eng.event(id);
                if (!ev->done)
                    all_done = false;
                else
                    max_t = std::max(max_t, ev->doneTime);
            }
            ++_pc;
            if (all_done) {
                now = std::max(now, max_t);
                continue;
            }
            _eng.whenAllDone(ids, [this, now](Cycles dt) {
                resume(std::max(now, dt));
            });
            return;
        }
        case MOp::Return:
            if (_event) {
                for (unsigned i = 0; i < m.nargs; ++i)
                    _event->results.push_back(arg(m, i));
            }
            finish(now);
            return;
        case MOp::Extern: {
            // Scratch call frame + compile-time-cached function pointer:
            // no per-call signature lookup, no argument-vector churn.
            _scratch.op = m.op;
            _scratch.proc = _proc;
            _scratch.args.reserve(m.nargs);
            for (unsigned i = 0; i < m.nargs; ++i)
                _scratch.args.push_back(arg(m, i));
            OpFnResult r = m.fn ? (*m.fn)(_scratch)
                                : _eng.opFns.invoke(*m.label, _scratch);
            // Drop the argument refs now: an exec lives until the run
            // ends, and a kept tensor argument would live as long.
            _scratch.args.clear();
            const unsigned nresults = m.op->numResults();
            eq_assert(r.results.size() >= nresults,
                      "op function returned too few results for '",
                      *m.label, "'");
            for (unsigned i = 0; i < nresults; ++i) {
                // The dense environment uses None to mean "unbound"; a
                // default-constructed result would read back as a
                // missing binding later, so reject it here where the
                // signature is known.
                eq_assert(!r.results[i].isNone(), "op function for '",
                          *m.label,
                          "' returned an empty SimValue for result ", i);
                bindLocal(_prog.resultPool[m.aux + i], r.results[i]);
            }
            Cycles cycles = std::max(costOf(m), r.cycles);
            if (chargeAfter(m, now, now, cycles))
                return;
            continue;
        }

        // --- elaboration (shared cores in elaborate.cc) -------------
        case MOp::CreateProc:
            bindLocal(m.result, _eng.elabCreateProc(m.op));
            ++_pc;
            continue;
        case MOp::CreateDma:
            bindLocal(m.result, _eng.elabCreateDma());
            ++_pc;
            continue;
        case MOp::CreateMem:
            bindLocal(m.result, _eng.elabCreateMem(m.op));
            ++_pc;
            continue;
        case MOp::CreateStream:
            bindLocal(m.result, _eng.elabCreateStream(m.op));
            ++_pc;
            continue;
        case MOp::CreateConnection:
            bindLocal(m.result, _eng.elabCreateConnection(m.op));
            ++_pc;
            continue;
        case MOp::CreateComp: {
            bool is_add = m.flags & kFlagIsAddComp;
            std::vector<SimValue> vals;
            vals.reserve(m.nargs);
            for (unsigned i = 0; i < m.nargs; ++i)
                vals.push_back(arg(m, i));
            SimValue r = _eng.elabCreateOrAddComp(m.op, vals.data(),
                                                  vals.size(), is_add);
            if (!is_add)
                bindLocal(m.result, r);
            ++_pc;
            continue;
        }
        case MOp::GetComp:
            bindLocal(m.result,
                      _eng.elabGetComp(arg(m, 0).asComponent(),
                                       _prog.strings[m.aux]));
            ++_pc;
            continue;
        case MOp::Alloc: {
            Memory *mem =
                m.flags & kFlagEqueueAlloc
                    ? static_cast<Memory *>(arg(m, 0).asComponent())
                    : nullptr;
            bindLocal(m.result, _eng.elabAlloc(m.op, mem));
            ++_pc;
            continue;
        }
        case MOp::Dealloc:
            ++_pc;
            continue;

        // --- superinstructions (sim/fuse.cc) ------------------------
        case MOp::Fused:
            // The group's one dispatch is counted above; its members
            // follow as ordinary records.
            ++_pc;
            continue;

        case MOp::Bad:
        default:
            eq_fatal("simulation engine cannot interpret op '",
                     m.op ? m.op->name() : "?", "'");
        }
    }
}

} // namespace sim
} // namespace eq
