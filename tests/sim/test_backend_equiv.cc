/**
 * @file
 * Backend equivalence: the compiled backend — with superinstruction
 * fusion off *and* on — must be *observationally byte-identical* to
 * the interpreter: same cycles, same event/op counts, same per-memory
 * traffic, per-connection bandwidth statistics, per-processor
 * utilization, and the same operation-level trace stream (times,
 * durations, labels, and record order) — across the six golden-trace
 * scenarios (FIR on AI Engines, conv lowered through the full pass
 * pipeline onto 4x4/8x8 WS/OS systolic arrays) and the three SoC
 * scenarios. The only sanctioned difference is
 * SimReport::dispatchCount: equal to opsExecuted on the interpreter
 * and the unfused compiled backend, strictly lower with fusion on (the
 * fusion win). The fused counters of those nine scenarios are pinned,
 * so grouping and dispatch accounting cannot drift.
 *
 * The compiled backend writes each opcode's semantics once and runs an
 * unfused record as a group of one; the arm tests below give every
 * opcode arm the real workloads never reach (float arith, affine
 * load/store, matmul and the linalg fallback, conn-carrying stream
 * reads, the await corner cases, empty loops, nested modules,
 * deallocation) a small builder-made module of its own, run on all
 * three modes — inside a fused group wherever the arm can fuse. A
 * "probe" op function logs the values each arm computes, so the data
 * is compared too, not just the timing.
 *
 * Also pins the backend-selection seam: EngineOptions::backend wins,
 * EQ_SIM_BACKEND resolves Backend::Auto, and the default is the
 * interpreter (ditto EngineOptions::fuse / EQ_SIM_FUSE, default on).
 */

#include <cstdlib>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "aie/fir.hh"
#include "dialects/affine.hh"
#include "dialects/arith.hh"
#include "dialects/linalg.hh"
#include "dialects/memref.hh"
#include "ir/builder.hh"
#include "passes/pipeline.hh"
#include "scalesim/scalesim.hh"
#include "sim/engine.hh"
#include "soc/soc.hh"
#include "systolic/generator.hh"
#include "testutil.hh"

namespace {

using namespace eq;
using ir::Value;

struct RunOutcome {
    sim::SimReport report;
    std::vector<std::string> trace;  ///< one rendered line per event
    std::vector<std::string> probes; ///< values logged by "probe" calls
};

/** The three execution modes of the equivalence matrix. */
struct Mode {
    sim::Backend backend;
    sim::Fusion fuse;
};

constexpr Mode kInterp{sim::Backend::Interp, sim::Fusion::Off};
constexpr Mode kCompiled{sim::Backend::Compiled, sim::Fusion::Off};
constexpr Mode kFused{sim::Backend::Compiled, sim::Fusion::On};

std::vector<std::string>
renderTrace(const sim::Trace &trace)
{
    std::vector<std::string> lines;
    lines.reserve(trace.events().size());
    for (const auto &ev : trace.events()) {
        std::ostringstream os;
        os << ev.ts << " " << ev.dur << " " << ev.cat << " " << ev.pid
           << " " << ev.tid << " " << ev.name;
        lines.push_back(os.str());
    }
    return lines;
}

/** Render a probed value: ints, floats and tensor contents. */
std::string
renderValue(const sim::SimValue &v)
{
    std::ostringstream os;
    if (v.isInt()) {
        os << v.asInt();
    } else if (v.isFloat()) {
        os << v.asFloat() << "f";
    } else if (v.isTensor()) {
        os << "[";
        for (int64_t x : v.asTensor()->data)
            os << " " << x;
        os << " ]";
    } else {
        os << "?";
    }
    return os.str();
}

/** Simulate @p module in @p mode with tracing on and the "probe" op
 *  function registered. */
RunOutcome
runModule(Mode mode, ir::Operation *module)
{
    sim::EngineOptions opts;
    opts.enableTrace = true;
    opts.backend = mode.backend;
    opts.fuse = mode.fuse;
    sim::Simulator s(opts);
    RunOutcome out;
    std::vector<std::string> &probes = out.probes;
    s.opFunctions().registerOp("probe", [&probes](const sim::OpCall &c) {
        for (const sim::SimValue &v : c.args)
            probes.push_back(renderValue(v));
        return sim::OpFnResult{};
    });
    out.report = s.simulate(module);
    out.trace = renderTrace(s.trace());
    return out;
}

void
expectOutcomesIdentical(const RunOutcome &interp,
                        const RunOutcome &compiled)
{
    const sim::SimReport &a = interp.report;
    const sim::SimReport &b = compiled.report;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.opsExecuted, b.opsExecuted);
    // dispatchCount is deliberately NOT compared here: it is the one
    // backend-dependent report field (see the matrix tests below).

    ASSERT_EQ(a.memories.size(), b.memories.size());
    for (size_t i = 0; i < a.memories.size(); ++i) {
        EXPECT_EQ(a.memories[i].name, b.memories[i].name);
        EXPECT_EQ(a.memories[i].kind, b.memories[i].kind);
        EXPECT_EQ(a.memories[i].bytesRead, b.memories[i].bytesRead);
        EXPECT_EQ(a.memories[i].bytesWritten,
                  b.memories[i].bytesWritten);
    }
    ASSERT_EQ(a.connections.size(), b.connections.size());
    for (size_t i = 0; i < a.connections.size(); ++i) {
        EXPECT_EQ(a.connections[i].name, b.connections[i].name);
        EXPECT_EQ(a.connections[i].readBytes,
                  b.connections[i].readBytes);
        EXPECT_EQ(a.connections[i].writeBytes,
                  b.connections[i].writeBytes);
        EXPECT_DOUBLE_EQ(a.connections[i].maxBw,
                         b.connections[i].maxBw);
        EXPECT_DOUBLE_EQ(a.connections[i].maxBwPortionRead,
                         b.connections[i].maxBwPortionRead);
        EXPECT_DOUBLE_EQ(a.connections[i].maxBwPortionWrite,
                         b.connections[i].maxBwPortionWrite);
    }
    ASSERT_EQ(a.processors.size(), b.processors.size());
    for (size_t i = 0; i < a.processors.size(); ++i) {
        EXPECT_EQ(a.processors[i].name, b.processors[i].name);
        EXPECT_EQ(a.processors[i].busyCycles,
                  b.processors[i].busyCycles);
        EXPECT_EQ(a.processors[i].opsExecuted,
                  b.processors[i].opsExecuted);
    }
    EXPECT_EQ(interp.probes, compiled.probes);

    // The trace must match line for line, in recording order (a
    // stronger condition than the golden harness's ts-normalized
    // stream).
    ASSERT_EQ(interp.trace.size(), compiled.trace.size());
    for (size_t i = 0; i < interp.trace.size(); ++i)
        ASSERT_EQ(interp.trace[i], compiled.trace[i])
            << "first trace divergence at event " << i;
}

/** Assert the whole three-way matrix for one scenario: interp vs
 *  compiled vs compiled+fused outcomes line-identical, opsExecuted
 *  dispatch parity off fusion, and a strict dispatch-count drop with
 *  fusion on (the systolic PE bodies must actually fuse). */
void
expectMatrix(const RunOutcome &interp, const RunOutcome &compiled,
             const RunOutcome &fused, bool expect_fusion_win)
{
    expectOutcomesIdentical(interp, compiled);
    expectOutcomesIdentical(interp, fused);
    expectOutcomesIdentical(compiled, fused);
    EXPECT_EQ(interp.report.dispatchCount, interp.report.opsExecuted);
    EXPECT_EQ(compiled.report.dispatchCount,
              compiled.report.opsExecuted);
    if (expect_fusion_win)
        EXPECT_LT(fused.report.dispatchCount,
                  compiled.report.dispatchCount);
    else
        EXPECT_LE(fused.report.dispatchCount,
                  compiled.report.dispatchCount);
}

/** Fused-mode work counters, pinned per scenario. */
struct Counters {
    uint64_t dispatches;
    uint64_t ops;
    uint64_t events;
};

void
expectCounters(const RunOutcome &fused, const Counters &want)
{
    EXPECT_EQ(fused.report.dispatchCount, want.dispatches);
    EXPECT_EQ(fused.report.opsExecuted, want.ops);
    EXPECT_EQ(fused.report.eventsExecuted, want.events);
}

/** Build a scenario once per mode (each in its own context) and check
 *  the matrix plus the pinned fused counters. */
template <typename Build>
void
expectScenario(Build build, const Counters &pinned)
{
    RunOutcome runs[3];
    const Mode modes[3] = {kInterp, kCompiled, kFused};
    for (int i = 0; i < 3; ++i) {
        ir::Context ctx;
        ir::registerAllDialects(ctx);
        ir::OwningOpRef module = build(ctx);
        runs[i] = runModule(modes[i], module.get());
    }
    expectMatrix(runs[0], runs[1], runs[2], /*expect_fusion_win=*/true);
    expectCounters(runs[2], pinned);
}

auto
firScenario(const aie::FirConfig &cfg)
{
    return [cfg](ir::Context &ctx) { return aie::buildFirModule(ctx, cfg); };
}

auto
systolicScenario(int array, scalesim::Dataflow df)
{
    return [array, df](ir::Context &ctx) {
        scalesim::Config cfg;
        cfg.ah = cfg.aw = array;
        cfg.dataflow = df;
        cfg.c = 2;
        cfg.h = cfg.w = 8;
        cfg.n = 8;
        cfg.fh = cfg.fw = 3;
        cfg.elemBytes = 4;
        auto module = passes::buildConvModule(ctx, cfg);
        std::string diag = passes::lowerConvModule(
            module.get(), passes::Stage::Systolic, cfg);
        EXPECT_TRUE(diag.empty()) << diag;
        return module;
    };
}

TEST(BackendEquivTest, FirAieCase3)
{
    expectScenario(firScenario(aie::FirConfig::case3()),
                   {4261, 14407, 17});
}

TEST(BackendEquivTest, FirAieCase4)
{
    expectScenario(firScenario(aie::FirConfig::case4()),
                   {1069, 4666, 5});
}

TEST(BackendEquivTest, Systolic4x4Ws)
{
    expectScenario(systolicScenario(4, scalesim::Dataflow::WS),
                   {13054, 82884, 12848});
}

TEST(BackendEquivTest, Systolic4x4Os)
{
    expectScenario(systolicScenario(4, scalesim::Dataflow::OS),
                   {13026, 88836, 12828});
}

TEST(BackendEquivTest, Systolic8x8Ws)
{
    expectScenario(systolicScenario(8, scalesim::Dataflow::WS),
                   {14889, 96823, 14230});
}

TEST(BackendEquivTest, Systolic8x8Os)
{
    expectScenario(systolicScenario(8, scalesim::Dataflow::OS),
                   {14880, 103784, 14224});
}

/** Shared-bus SoC: the PE bodies mix fusable register traffic with
 *  connection-carrying boundary reads/writes that fuse too (a grouped
 *  record does the same acquire/transfer accounting as an unfused
 *  one) — contention arbitration has to land identically on every
 *  backend. */
TEST(BackendEquivTest, SocSharedBusContention)
{
    soc::SocConfig cfg = soc::SocConfig::heteroStarved();
    expectScenario(
        [&cfg](ir::Context &ctx) { return soc::buildSocModule(ctx, cfg); },
        {329, 1259, 190});
}

/** Boundary-op fusion on the dual-tile shared-bus scenario: the pinned
 *  fused dispatch count is about opsExecuted/4, which conn-carrying bus
 *  reads/writes reach only when they are inside fused groups
 *  themselves (interior-only fusion of MACs and address math gives
 *  roughly opsExecuted/2.7). */
TEST(BackendEquivTest, SocDualSharedBusBoundaryFusion)
{
    soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
    expectScenario(
        [&cfg](ir::Context &ctx) { return soc::buildSocModule(ctx, cfg); },
        {269, 1071, 170});
}

/** Buffered layer pipeline: overlapping items queue on stage
 *  processors and DMA FIFOs; hop writes ride bandwidth-limited
 *  connections. */
TEST(BackendEquivTest, SocPipelineBuffered)
{
    soc::PipelineConfig cfg = soc::PipelineConfig::small();
    expectScenario(
        [&cfg](ir::Context &ctx) {
            return soc::buildPipelineModule(ctx, cfg);
        },
        {848, 2421, 37});
}

// ---------------------------------------------------------------------------
// Per-arm modules: one small program per opcode arm that the scenarios
// above never execute.

class ArmMatrixTest : public test::RegisteredModuleTest {
  protected:
    /** Run the module on all three modes, assert the matrix, and
     *  return the fused outcome. @p fuses: some arm runs inside a
     *  fused group, so fused dispatches must drop. */
    RunOutcome
    expectArmMatrix(bool fuses)
    {
        RunOutcome interp = runModule(kInterp, module.get());
        RunOutcome compiled = runModule(kCompiled, module.get());
        RunOutcome fused = runModule(kFused, module.get());
        expectMatrix(interp, compiled, fused, fuses);
        return fused;
    }

    Value
    intConst(int64_t v)
    {
        return b->create<arith::ConstantOp>(v, ctx.i32Type())->result(0);
    }

    Value
    floatConst(double v)
    {
        return b->create<arith::ConstantOp>(v, ctx.floatType())->result(0);
    }

    void
    probe(std::vector<Value> args)
    {
        b->create<equeue::ExternOp>(std::string("probe"), std::move(args),
                                    std::vector<ir::Type>{});
    }

    Value
    proc(const std::string &kind = "MAC")
    {
        return b->create<equeue::CreateProcOp>(kind)->result(0);
    }

    Value
    start()
    {
        return b->create<equeue::ControlStartOp>()->result(0);
    }

    /** Emit a launch of @p body on @p on after @p dep, capturing
     *  @p captured (the body sees them as its block arguments); the
     *  body ends in an empty return. */
    template <typename Body>
    Value
    launch(Value dep, Value on, std::vector<Value> captured, Body body)
    {
        auto l = b->create<equeue::LaunchOp>(std::vector<Value>{dep}, on,
                                             std::move(captured),
                                             std::vector<ir::Type>{});
        ir::OpBuilder::InsertionGuard g(*b);
        b->setInsertionPointToEnd(&l.body());
        body(l.body());
        b->create<equeue::ReturnOp>(std::vector<Value>{});
        return l.done();
    }

    /** Set the builder inside @p op's body block. */
    void
    enter(ir::Operation *op)
    {
        b->setInsertionPointToEnd(&op->region(0).front());
    }
};

/** arith.subi / addf / mulf, inside a fused launch body. */
TEST_F(ArmMatrixTest, ScalarArith)
{
    Value p = proc();
    Value done = launch(start(), p, {}, [&](ir::Block &) {
        Value sub = b->create<arith::SubIOp>(intConst(7), intConst(3))
                        ->result(0);
        Value x = floatConst(1.5);
        Value y = floatConst(2.25);
        Value add = b->create<arith::AddFOp>(x, y)->result(0);
        Value mul = b->create<arith::MulFOp>(x, y)->result(0);
        probe({sub, add, mul});
    });
    b->create<equeue::AwaitOp>(std::vector<Value>{done});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes,
              (std::vector<std::string>{"4", "3.75f", "3.375f"}));
}

/** affine.load / affine.store with loop-variable indices inside a
 *  fused loop body, and with constant indices (folded to immediates
 *  under fusion) both inside a group and as standalone records. */
TEST_F(ArmMatrixTest, AffineLoadStore)
{
    Value p = proc();
    Value a = b->create<memref::AllocOp>(std::vector<int64_t>{4}, 32u)
                  ->result(0);
    Value c = b->create<memref::AllocOp>(std::vector<int64_t>{4}, 32u)
                  ->result(0);
    b->create<linalg::FillOp>(a, int64_t{5});
    Value done = launch(start(), p, {a, c}, [&](ir::Block &body) {
        Value src = body.argument(0);
        Value dst = body.argument(1);
        {
            ir::OpBuilder::InsertionGuard g(*b);
            auto loop = b->create<affine::ForOp>(0, 4);
            enter(loop.op());
            Value iv = loop.inductionVar();
            Value v = b->create<affine::LoadOp>(src, std::vector<Value>{iv})
                          ->result(0);
            b->create<affine::StoreOp>(v, dst, std::vector<Value>{iv});
            b->create<affine::YieldOp>();
        }
        Value c2 = intConst(2);
        Value v = b->create<affine::LoadOp>(dst, std::vector<Value>{c2})
                      ->result(0);
        b->create<affine::StoreOp>(intConst(9), dst,
                                   std::vector<Value>{c2});
        probe({v});
        // A standalone load between two control records: never fused.
        auto loop = b->create<affine::ForOp>(0, 1);
        {
            ir::OpBuilder::InsertionGuard g(*b);
            enter(loop.op());
            Value w = b->create<affine::LoadOp>(dst, std::vector<Value>{c2})
                          ->result(0);
            b->create<affine::YieldOp>();
            (void)w;
        }
        Value w = b->create<affine::LoadOp>(dst, std::vector<Value>{c2})
                      ->result(0);
        probe({w});
    });
    b->create<equeue::AwaitOp>(std::vector<Value>{done});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"5", "9"}));
}

/** linalg.matmul and the analytic-cost fallback for any other linalg
 *  op, on a processor (so both pay their cost). */
TEST_F(ArmMatrixTest, LinalgMatmulAndFallback)
{
    ctx.setAllowUnregistered(true);
    Value p = proc();
    Value ma = b->create<memref::AllocOp>(std::vector<int64_t>{2, 3}, 32u)
                   ->result(0);
    Value mb = b->create<memref::AllocOp>(std::vector<int64_t>{3, 2}, 32u)
                   ->result(0);
    Value mc = b->create<memref::AllocOp>(std::vector<int64_t>{2, 2}, 32u)
                   ->result(0);
    b->create<linalg::FillOp>(ma, int64_t{1});
    b->create<linalg::FillOp>(mb, int64_t{2});
    Value done = launch(start(), p, {ma, mb, mc}, [&](ir::Block &body) {
        b->create<linalg::MatmulOp>(body.argument(0), body.argument(1),
                                    body.argument(2));
        b->create("linalg.transpose", {}, {body.argument(2)});
        Value c0 = intConst(0);
        Value c1 = intConst(1);
        probe({b->create<affine::LoadOp>(body.argument(2),
                                         std::vector<Value>{c1, c0})
                   ->result(0)});
    });
    b->create<equeue::AwaitOp>(std::vector<Value>{done});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"6"}));
}

/** A conn-carrying stream read: the consumer launches first and waits
 *  at the head of its fused body for the producer's push. */
TEST_F(ArmMatrixTest, StreamReadWithConnection)
{
    Value consumer = proc();
    Value producer = proc();
    Value stream =
        b->create<equeue::CreateStreamOp>(32u)->result(0);
    Value conn = b->create<equeue::CreateConnectionOp>(
                      std::string("Streaming"), int64_t{2})
                     ->result(0);
    Value mem = b->create<equeue::CreateMemOp>(
                     std::string("Register"), std::vector<int64_t>{8}, 32u)
                    ->result(0);
    Value src = b->create<equeue::AllocOp>(mem, std::vector<int64_t>{2},
                                           32u)
                    ->result(0);
    Value go = start();
    Value rd = launch(go, consumer, {stream, conn}, [&](ir::Block &body) {
        Value r = b->create<equeue::StreamReadOp>(body.argument(0),
                                                  int64_t{2}, 32u,
                                                  body.argument(1))
                      ->result(0);
        probe({r});
    });
    Value wr = launch(go, producer, {stream, conn, src},
                      [&](ir::Block &body) {
                          Value v = b->create<equeue::ReadOp>(
                                         body.argument(2), Value(),
                                         std::vector<Value>{})
                                        ->result(0);
                          b->create<equeue::StreamWriteOp>(
                              v, body.argument(0), body.argument(1));
                      });
    b->create<equeue::AwaitOp>(std::vector<Value>{rd, wr});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"[ 0 0 ]"}));
    ASSERT_EQ(fused.report.connections.size(), 1u);
    EXPECT_EQ(fused.report.connections[0].readBytes, 8);
    EXPECT_EQ(fused.report.connections[0].writeBytes, 8);
}

/** Await corner cases, all in one fused top-level run: await-all with
 *  exactly one pending spawned event, with none pending, and with none
 *  ever spawned (in the launch body); explicit awaits whose events
 *  have all completed. */
TEST_F(ArmMatrixTest, AwaitCornerCases)
{
    Value p = proc();
    Value go = start();
    Value done = launch(go, p, {}, [&](ir::Block &) {
        probe({intConst(1)});
        b->create<equeue::AwaitOp>(std::vector<Value>{});
        probe({intConst(2)});
    });
    b->create<equeue::AwaitOp>(std::vector<Value>{}); // one pending
    b->create<equeue::AwaitOp>(std::vector<Value>{}); // none pending
    b->create<equeue::AwaitOp>(std::vector<Value>{done}); // completed
    b->create<equeue::AwaitOp>(std::vector<Value>{go});   // completed

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"1", "2"}));
}

/** An await-all with one pending launch resumes its exec directly from
 *  the launch's completion, before the launch's processor is released.
 *  A costed op right after must not advance the clock in place there:
 *  the completion still schedules the processor's next issue at the
 *  earlier time, and the scheduler refuses time going backwards. */
TEST_F(ArmMatrixTest, CostedOpAfterResumeFromCompletion)
{
    Value p = proc();
    launch(start(), p, {}, [&](ir::Block &) { probe({intConst(1)}); });
    b->create<equeue::AwaitOp>(std::vector<Value>{});
    probe({intConst(2)});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"1", "2"}));
    EXPECT_EQ(fused.report.cycles, 2u);
}

/** The same for a copy: an await on a DMA copy resumes its exec from
 *  the copy's completion, before the DMA issues its next queued copy
 *  at that time, so the two costed ops after the await must not run
 *  ahead of it. */
TEST_F(ArmMatrixTest, CostedOpsAfterResumeFromCopyCompletion)
{
    Value mem = b->create<equeue::CreateMemOp>(
                     std::string("SRAM"), std::vector<int64_t>{64}, 32u,
                     4u)
                    ->result(0);
    Value x = b->create<equeue::AllocOp>(mem, std::vector<int64_t>{4}, 32u)
                  ->result(0);
    Value y = b->create<equeue::AllocOp>(mem, std::vector<int64_t>{4}, 32u)
                  ->result(0);
    Value dma = b->create<equeue::CreateDmaOp>()->result(0);
    Value go = start();
    Value first =
        b->create<equeue::MemcpyOp>(go, x, y, dma, Value())->result(0);
    Value second =
        b->create<equeue::MemcpyOp>(go, y, x, dma, Value())->result(0);
    b->create<equeue::AwaitOp>(std::vector<Value>{first});
    probe({intConst(1)});
    probe({intConst(2)});
    b->create<equeue::AwaitOp>(std::vector<Value>{second});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"1", "2"}));
    EXPECT_EQ(fused.report.cycles, 3u);
}

/** Empty affine.for / affine.parallel (zero trip count, an empty
 *  dimension, and a zero-dimensional parallel) skip their bodies. */
TEST_F(ArmMatrixTest, EmptyLoops)
{
    Value p = proc();
    Value done = launch(start(), p, {}, [&](ir::Block &) {
        {
            ir::OpBuilder::InsertionGuard g(*b);
            enter(b->create<affine::ForOp>(3, 3).op());
            probe({intConst(-1)});
        }
        {
            ir::OpBuilder::InsertionGuard g(*b);
            enter(b->create<affine::ParallelOp>(std::vector<int64_t>{0, 2},
                                                std::vector<int64_t>{2, 2})
                      .op());
            probe({intConst(-2)});
        }
        {
            ir::OpBuilder::InsertionGuard g(*b);
            enter(b->create<affine::ParallelOp>(std::vector<int64_t>{},
                                                std::vector<int64_t>{})
                      .op());
            probe({intConst(-3)});
        }
        probe({intConst(4)});
    });
    b->create<equeue::AwaitOp>(std::vector<Value>{done});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"4"}));
}

/** A nested builtin.module runs inline in the enclosing scope. */
TEST_F(ArmMatrixTest, NestedModule)
{
    Value p = proc();
    Value go = start();
    ir::Operation *nested =
        b->create("builtin.module", {}, {}, {}, /*num_regions=*/1);
    nested->region(0).ensureBlock();
    enter(nested);
    Value done = launch(go, p, {}, [&](ir::Block &) {
        probe({b->create<arith::MulIOp>(intConst(6), intConst(7))
                   ->result(0)});
    });
    b->create<equeue::AwaitOp>(std::vector<Value>{done});

    RunOutcome fused = expectArmMatrix(/*fuses=*/true);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"42"}));
}

/** equeue.dealloc and memref.dealloc are counted no-ops. */
TEST_F(ArmMatrixTest, Dealloc)
{
    Value mem = b->create<equeue::CreateMemOp>(
                     std::string("SRAM"), std::vector<int64_t>{64}, 32u)
                    ->result(0);
    Value buf = b->create<equeue::AllocOp>(mem, std::vector<int64_t>{4},
                                           32u)
                    ->result(0);
    Value m = b->create<memref::AllocOp>(std::vector<int64_t>{4}, 32u)
                  ->result(0);
    b->create<equeue::DeallocOp>(buf);
    b->create<memref::DeallocOp>(m);
    probe({intConst(1)});

    RunOutcome fused = expectArmMatrix(/*fuses=*/false);
    EXPECT_EQ(fused.report.opsExecuted, 7u);
    EXPECT_EQ(fused.probes, (std::vector<std::string>{"1"}));
}

/** Save/restore one environment variable so the selection-seam tests
 *  are env-neutral even under the compiled/fused CI legs. */
class EnvGuard {
  public:
    explicit EnvGuard(const char *name) : _name(name)
    {
        const char *v = std::getenv(name);
        if (v) {
            _had = true;
            _old = v;
        }
    }
    ~EnvGuard()
    {
        if (_had)
            setenv(_name, _old.c_str(), 1);
        else
            unsetenv(_name);
    }

  private:
    const char *_name;
    bool _had = false;
    std::string _old;
};

TEST(BackendEquivTest, SelectionSeam)
{
    EnvGuard guard("EQ_SIM_BACKEND");

    unsetenv("EQ_SIM_BACKEND");
    EXPECT_EQ(sim::Simulator().backend(), sim::Backend::Interp);

    setenv("EQ_SIM_BACKEND", "compiled", 1);
    EXPECT_EQ(sim::Simulator().backend(), sim::Backend::Compiled);

    setenv("EQ_SIM_BACKEND", "interp", 1);
    EXPECT_EQ(sim::Simulator().backend(), sim::Backend::Interp);

    // An explicit option always beats the environment.
    sim::EngineOptions opts;
    opts.backend = sim::Backend::Compiled;
    setenv("EQ_SIM_BACKEND", "interp", 1);
    EXPECT_EQ(sim::Simulator(opts).backend(), sim::Backend::Compiled);
}

TEST(BackendEquivTest, FusionSelectionSeam)
{
    EnvGuard guard("EQ_SIM_FUSE");

    // Default on.
    unsetenv("EQ_SIM_FUSE");
    EXPECT_TRUE(sim::Simulator().fusionEnabled());

    setenv("EQ_SIM_FUSE", "0", 1);
    EXPECT_FALSE(sim::Simulator().fusionEnabled());
    setenv("EQ_SIM_FUSE", "off", 1);
    EXPECT_FALSE(sim::Simulator().fusionEnabled());
    setenv("EQ_SIM_FUSE", "1", 1);
    EXPECT_TRUE(sim::Simulator().fusionEnabled());
    setenv("EQ_SIM_FUSE", "on", 1);
    EXPECT_TRUE(sim::Simulator().fusionEnabled());

    // An explicit option always beats the environment.
    sim::EngineOptions opts;
    opts.fuse = sim::Fusion::On;
    setenv("EQ_SIM_FUSE", "0", 1);
    EXPECT_TRUE(sim::Simulator(opts).fusionEnabled());
    opts.fuse = sim::Fusion::Off;
    unsetenv("EQ_SIM_FUSE");
    EXPECT_FALSE(sim::Simulator(opts).fusionEnabled());
}

TEST(BackendEquivTest, PrecompileCountsMicroOps)
{
    scalesim::Config cfg;
    cfg.ah = cfg.aw = 2;
    cfg.c = 1;
    cfg.h = cfg.w = 4;
    cfg.n = 2;
    cfg.fh = cfg.fw = 2;
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = systolic::buildSystolicModule(ctx, cfg);

    sim::EngineOptions opts;
    opts.backend = sim::Backend::Compiled;
    sim::Simulator s(opts);
    size_t n1 = s.precompile(module.get());
    EXPECT_GT(n1, 0u);
    // Deterministic: recompiling from scratch yields the same stream.
    EXPECT_EQ(n1, s.precompile(module.get()));
    // And a subsequent simulation is unaffected by the measurement.
    auto rep = s.simulate(module.get());
    EXPECT_GT(rep.cycles, 0u);
}

} // namespace
