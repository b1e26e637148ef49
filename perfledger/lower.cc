/**
 * @file
 * lower_conv: the Fig. 11 compiler-driven iteration loop in process, on
 * one thread. An op takes one conv config from fig11's space (4x4 array,
 * F = 3, C = 3, N = 4, H = W in {4, 8, 16}, WS/IS/OS), builds the Linalg
 * conv, lowers it with passes::lowerConvModule to each of Linalg /
 * Affine / Reassign / Systolic and simulates every stage.
 *
 * Key weights are exact (kWeight; 50 ops per cycle). Sorted by latency
 * the configs run H = 4 < WS8 ~ OS8 < IS8 < H = 16, and the weights put
 * p50 inside the WS8/OS8 bands (ranks 12..60%) and p90 inside IS8's
 * (60..94%); the H = 16 configs, 2.5x slower than IS8, fill the top 6%.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hh"

#include "passes/pipeline.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace ledger {
namespace {

using namespace eq;
using passes::Stage;

constexpr Stage kStages[] = {Stage::Linalg, Stage::Affine,
                             Stage::Reassign, Stage::Systolic};
constexpr const char *kPassSpan[] = {"passes.linalg", "passes.affine",
                                     "passes.reassign", "passes.systolic"};
constexpr int kWarmRuns = 2;
/** Ops per cycle for H = W in {4, 8, 16} (rows) x WS/IS/OS (cols). */
constexpr int kWeight[3][3] = {{2, 2, 2}, {12, 17, 12}, {1, 1, 1}};

class LowerConv : public Workload {
  public:
    explicit LowerConv(const Options &o) : _o(o)
    {
        const int sizes[] = {4, 8, 16};
        for (int hi = 0; hi < 3; ++hi) {
            for (int di = 0; di < 3; ++di) {
                scalesim::Config cfg;
                cfg.ah = cfg.aw = 4;
                cfg.c = 3;
                cfg.n = 4;
                cfg.fh = cfg.fw = 3;
                cfg.h = cfg.w = sizes[hi];
                cfg.dataflow = static_cast<scalesim::Dataflow>(di);
                uint32_t k = static_cast<uint32_t>(_configs.size());
                _configs.push_back(cfg);
                for (int r = 0; r < kWeight[hi][di]; ++r)
                    _cycle.push_back(k);
            }
        }
        auto rng = seededRng(o.seed, /*stream=*/11);
        std::shuffle(_cycle.begin(), _cycle.end(), rng);
    }

    void
    setUp(Tracer &t) override
    {
        Scope s(t, "setup");
        _sessions.clear();
        for (size_t i = 0; i < 4; ++i) {
            Scope c(t, "ir.context");
            _sessions.push_back(std::make_unique<sim::Session>());
        }
        // One discarded op on a fixed config (OS, H = W = 8), the same
        // for every seed.
        OpLog discard;
        runOp(t, 5, 0, discard);
    }

    Phase
    runOps(double seconds, Tracer &t, int) override
    {
        Phase phase;
        auto t0 = Clock::now();
        // One cycle per CPU in turn; the run ends on a whole rotation,
        // so every CPU ran the same ops.
        for (int b = 0; secondsSince(t0) < seconds || b % cpuCount();
             ++b) {
            rotateAffinity(b);
            for (uint32_t k : _cycle)
                runOp(t, k, ++_opSeq, phase.log);
        }
        phase.wallSeconds = secondsSince(t0);
        rotateAffinity(-1);
        return phase;
    }

    void
    probe(Tracer &t, Layers &layers, OpLog &checks) override
    {
        // Each distinct config once, every stage: verify, first run,
        // then warm runs of the same pinned module.
        Probe probe(t, checks);
        for (const auto &cfg : _configs) {
            for (size_t s = 0; s < 4; ++s) {
                Scope p(t, "probe.stage");
                std::string err =
                    rebuild(t, *_sessions[s], kStages[s], cfg, 0);
                checks.check(err.empty(), "lowering: " + err);
                if (err.empty())
                    probe.count(probe.module(*_sessions[s], kWarmRuns));
            }
        }
        probe.store(layers);
    }

    double peakRss() override { return peakRssMb(); }

    std::string
    keyLabel(uint32_t k) const override
    {
        const auto &c = _configs[k];
        return scalesim::dataflowName(c.dataflow) + " H=W=" +
               std::to_string(c.h);
    }

    std::vector<double>
    keyWeights() const override
    {
        std::vector<double> w(_configs.size(), 0.0);
        for (uint32_t k : _cycle)
            w[k] += 1.0 / double(_cycle.size());
        return w;
    }

    std::vector<std::string>
    provenance() const override
    {
        return {"lower_conv: " + std::to_string(_cycle.size()) +
                "-op seeded cycle over " +
                std::to_string(_configs.size()) +
                " fig11 configs x 4 stages; 1 thread"};
    }

  private:
    /** Build the Linalg conv inside @p session and lower it to
     *  @p stage. Returns the pass diagnostic ("" on success). */
    std::string
    rebuild(Tracer &t, sim::Session &session, Stage stage,
            const scalesim::Config &cfg, uint64_t op)
    {
        std::string err;
        size_t si = static_cast<size_t>(stage);
        session.rebuild([&](ir::Context &ctx) {
            ir::OwningOpRef m;
            {
                Scope b(t, "linalg.build", op);
                m = passes::buildConvModule(ctx, cfg);
            }
            Scope l(t, kPassSpan[si], op);
            err = passes::lowerConvModule(m.get(), stage, cfg);
            return m;
        });
        return err;
    }

    void
    runOp(Tracer &t, uint32_t k, uint64_t op, OpLog &log)
    {
        const scalesim::Config &cfg = _configs[k];
        auto t0 = Clock::now();
        std::string why;
        {
            Scope s(t, "lower.op", op);
            for (size_t s = 0; s < 4 && why.empty(); ++s) {
                std::string err = rebuild(t, *_sessions[s], kStages[s],
                                          cfg, op);
                if (!err.empty()) {
                    why = passes::stageName(kStages[s]) + ": " + err;
                    break;
                }
                sim::SimReport rep;
                {
                    Scope r(t, "sim.run", op);
                    rep = _sessions[s]->run();
                }
                if (kStages[s] == Stage::Systolic) {
                    // §VI-D: the pass-built model omits only the final
                    // fold's cool-down (Ah + Aw - 2 skew cycles).
                    uint64_t gen = systolic::expectedCycles(cfg);
                    uint64_t cooldown = uint64_t(cfg.ah + cfg.aw - 2);
                    if (!(rep.cycles < gen && gen - rep.cycles <= cooldown))
                        why = "systolic stage cycles " +
                              std::to_string(rep.cycles) +
                              " not within the cool-down below " +
                              std::to_string(gen);
                }
            }
        }
        double ms = secondsSince(t0) * 1e3;
        if (why.empty())
            log.ok(ms, k);
        else
            log.fail(ms, k, keyLabel(k) + ": " + why);
    }

    Options _o;
    std::vector<scalesim::Config> _configs;
    std::vector<uint32_t> _cycle;
    std::vector<std::unique_ptr<sim::Session>> _sessions;
    uint64_t _opSeq = 0;
};

} // namespace

std::unique_ptr<Workload>
makeLowerConv(const Options &o)
{
    return std::make_unique<LowerConv>(o);
}

} // namespace ledger
