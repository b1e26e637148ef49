/**
 * @file
 * SoC scenario-family generator tests: config value semantics (equality
 * and hashing for worker caches, derived from the field tables),
 * module well-formedness across the shipped factories, exact byte
 * accounting against the closed-form traffic formulas at every
 * elem_bytes, and contention monotonicity (narrower shared resources
 * never make the system faster).
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "soc/soc.hh"

namespace {

using namespace eq;

sim::SimReport
simulateSoc(const soc::SocConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildSocModule(ctx, cfg);
    EXPECT_EQ(module->verify(), "");
    sim::Simulator s;
    return s.simulate(module.get());
}

sim::SimReport
simulatePipeline(const soc::PipelineConfig &cfg)
{
    ir::Context ctx;
    ir::registerAllDialects(ctx);
    auto module = soc::buildPipelineModule(ctx, cfg);
    EXPECT_EQ(module->verify(), "");
    sim::Simulator s;
    return s.simulate(module.get());
}

TEST(SocConfig, EqualityAndHashTrackEveryField)
{
    soc::SocConfig a = soc::SocConfig::dualSharedBus();
    soc::SocConfig b = a;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());

    b.busBytesPerCycle = 16;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    b = a;
    b.accels[1].dataflow = scalesim::Dataflow::OS;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    b = a;
    b.busKind = "Window";
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());

    b = a;
    b.accels.push_back(soc::TileSpec{});
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(SocConfig, FactoriesAreDistinct)
{
    EXPECT_NE(soc::SocConfig::dualSharedBus(),
              soc::SocConfig::heteroStarved());
    EXPECT_NE(soc::SocConfig::dualSharedBus().hash(),
              soc::SocConfig::heteroStarved().hash());
}

TEST(PipelineConfig, EqualityAndHashTrackEveryField)
{
    soc::PipelineConfig a = soc::PipelineConfig::small();
    soc::PipelineConfig b = a;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.stages += 1;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
    b = a;
    b.hopBytesPerCycle = 1;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(SocModule, DualSharedBusVerifiesAndRuns)
{
    auto rep = simulateSoc(soc::SocConfig::dualSharedBus());
    EXPECT_GT(rep.cycles, 0u);
    EXPECT_GT(rep.eventsExecuted, 0u);
    // 2 tiles x 2x2 PEs, plus one DMA.
    int macs = 0;
    for (const auto &p : rep.processors)
        if (p.kind == "MAC")
            ++macs;
    EXPECT_EQ(macs, 8);
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
    }
}

TEST(SocModule, HeteroStarvedVerifiesAndRuns)
{
    auto rep = simulateSoc(soc::SocConfig::heteroStarved());
    EXPECT_GT(rep.cycles, 0u);
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
    }
}

TEST(SocModule, PipelineVerifiesAndRuns)
{
    auto rep = simulatePipeline(soc::PipelineConfig::small());
    EXPECT_GT(rep.cycles, 0u);
    for (const auto &p : rep.processors) {
        EXPECT_GE(p.utilization, 0.0) << p.name;
        EXPECT_LE(p.utilization, 1.0 + 1e-9) << p.name;
    }
}

/** Every elem_bytes the config admits besides the presets' 4: the
 *  generators' allocs must scale with it like the closed forms do. */
const int64_t kElemBytes[] = {4, 1, 2, 8};

/** The bus is the first connection created; per-tile links follow in
 *  accelerator order. */
void
expectSocTrafficMatches(const soc::SocConfig &cfg)
{
    auto rep = simulateSoc(cfg);
    auto want = soc::expectedSocTraffic(cfg);
    ASSERT_EQ(rep.connections.size(), 1 + cfg.accels.size());
    EXPECT_EQ(rep.connections[0].readBytes, want.busReadBytes);
    EXPECT_EQ(rep.connections[0].writeBytes, want.busWriteBytes);
    for (size_t a = 0; a < cfg.accels.size(); ++a) {
        EXPECT_EQ(rep.connections[1 + a].readBytes, want.linkReadBytes[a])
            << "accel " << a;
        EXPECT_EQ(rep.connections[1 + a].writeBytes,
                  want.linkWriteBytes[a])
            << "accel " << a;
    }
}

TEST(SocTraffic, DualSharedBusMatchesClosedForm)
{
    for (int64_t eb : kElemBytes) {
        SCOPED_TRACE("elem_bytes=" + std::to_string(eb));
        soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
        cfg.elemBytes = eb;
        expectSocTrafficMatches(cfg);
    }
}

TEST(SocTraffic, HeteroStarvedMatchesClosedForm)
{
    auto want = soc::expectedSocTraffic(soc::SocConfig::heteroStarved());
    // Tile 0 is WS: preloads arrive over its link; tile 1 is OS:
    // accumulators drain over its link.
    EXPECT_GT(want.linkReadBytes[0], 0);
    EXPECT_EQ(want.linkWriteBytes[0], 0);
    EXPECT_EQ(want.linkReadBytes[1], 0);
    EXPECT_GT(want.linkWriteBytes[1], 0);
    for (int64_t eb : kElemBytes) {
        SCOPED_TRACE("elem_bytes=" + std::to_string(eb));
        soc::SocConfig cfg = soc::SocConfig::heteroStarved();
        cfg.elemBytes = eb;
        expectSocTrafficMatches(cfg);
    }
}

/** Connections: conn-in, conn-out, then one hop per stage. */
TEST(SocTraffic, PipelineMatchesClosedForm)
{
    for (int64_t eb : kElemBytes) {
        SCOPED_TRACE("elem_bytes=" + std::to_string(eb));
        soc::PipelineConfig cfg = soc::PipelineConfig::small();
        cfg.elemBytes = eb;
        auto rep = simulatePipeline(cfg);
        auto want = soc::expectedPipelineTraffic(cfg);
        ASSERT_EQ(rep.connections.size(), 2 + size_t(cfg.stages));
        EXPECT_EQ(rep.connections[0].writeBytes, want.inBytes);
        EXPECT_EQ(rep.connections[1].writeBytes, want.outBytes);
        for (int s = 0; s < cfg.stages; ++s)
            EXPECT_EQ(rep.connections[2 + s].writeBytes, want.hopBytes)
                << "hop " << s;
    }
}

TEST(SocContention, NarrowerBusNeverFaster)
{
    uint64_t prev = ~0ull;
    for (int64_t bw : {1, 2, 4, 8, 16}) {
        soc::SocConfig cfg = soc::SocConfig::dualSharedBus();
        cfg.busBytesPerCycle = bw;
        uint64_t cycles = simulateSoc(cfg).cycles;
        EXPECT_LE(cycles, prev) << "bus bw=" << bw;
        prev = cycles;
    }
}

TEST(SocContention, MoreDmaEnginesNeverSlower)
{
    soc::SocConfig one = soc::SocConfig::dualSharedBus();
    soc::SocConfig two = one;
    two.dmaEngines = 2;
    EXPECT_LE(simulateSoc(two).cycles, simulateSoc(one).cycles);
}

TEST(SocContention, SecondTileCostsCyclesOnSharedBus)
{
    soc::SocConfig dual = soc::SocConfig::dualSharedBus();
    soc::SocConfig solo = dual;
    solo.accels.resize(1);
    EXPECT_GE(simulateSoc(dual).cycles, simulateSoc(solo).cycles);
}

TEST(SocContention, PipelineBatchesMonotone)
{
    uint64_t prev = 0;
    for (int batches : {1, 2, 4, 8}) {
        soc::PipelineConfig cfg = soc::PipelineConfig::small();
        cfg.batches = batches;
        uint64_t cycles = simulatePipeline(cfg).cycles;
        EXPECT_GE(cycles, prev) << "batches=" << batches;
        prev = cycles;
    }
}

TEST(SocContention, PipelineOverlapsBatches)
{
    // Doubling the item count must cost less than double the cycles:
    // the chain genuinely pipelines (fill/drain amortized).
    soc::PipelineConfig cfg = soc::PipelineConfig::small();
    cfg.batches = 2;
    uint64_t c2 = simulatePipeline(cfg).cycles;
    cfg.batches = 4;
    uint64_t c4 = simulatePipeline(cfg).cycles;
    EXPECT_LT(c4, 2 * c2);
}

} // namespace
