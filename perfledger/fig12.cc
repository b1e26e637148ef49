/**
 * @file
 * fig12_sweep: a seeded sample of the paper's full Fig. 12 design
 * space, simulated through the crash-safe sweep layer (SweepRunner +
 * journal + result cache) on two threads. An op is one point.
 *
 * The full grid is 1260 points (df x Ah in {2..32} with Aw = 64/Ah x
 * H = W x F = C x N) and costs minutes of CPU per pass, so points are
 * capped by the closed-form systolic::expectedCycles. The sample is
 * stratified on a closed-form estimate of the ops each point executes
 * (opsEstimate), one seeded pick per stratum, so every seed draws
 * nearly the same host-cost distribution and only the points differ.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hh"

#include "scalesim/scalesim.hh"
#include "sim/session.hh"
#include "sweep/grid.hh"
#include "sweep/journal.hh"
#include "sweep/runner.hh"
#include "systolic/generator.hh"

namespace ledger {
namespace {

using namespace eq;

/** Points simulated per round (divisible by the 10 cost deciles):
 *  three quarters of the capped grid, so the seed changes which
 *  points run but barely moves the cost distribution. */
constexpr size_t kSample = 480;
/** Points whose closed-form cycle count exceeds this are left out. */
constexpr uint64_t kCycleCap = 400;
/** Sweep threads (pinned; never the hardware default). */
constexpr unsigned kThreads = 2;
/** Points re-run first + warm in the traced run's probe. */
constexpr size_t kProbePoints = 12;
constexpr int kWarmRuns = 2;

/**
 * Closed-form estimate of the engine ops one point executes: every fold
 * streams T values plus the Ah + Aw skew through the PEs the fold
 * occupies, plus a per-fold constant (preload, drain, launch set-up).
 * Host time follows it far better than simulated cycles do, because
 * small folds leave most of the 64 PEs idle.
 */
uint64_t
opsEstimate(const scalesim::Config &c)
{
    uint64_t folds = systolic::loopIterations(c);
    uint64_t active = uint64_t(std::min<int64_t>(c.d1(), c.ah)) *
                      uint64_t(std::min<int64_t>(c.d2(), c.aw));
    uint64_t steps = uint64_t(c.streamLength()) + c.ah + c.aw;
    return folds * steps * active + 100 * folds;
}

scalesim::Dataflow
dataflowOf(int64_t v)
{
    return v == 0 ? scalesim::Dataflow::WS
                  : v == 1 ? scalesim::Dataflow::IS
                           : scalesim::Dataflow::OS;
}

class Fig12Sweep : public Workload {
  public:
    explicit Fig12Sweep(const Options &o) : _o(o) {}

    void
    setUp(Tracer &t) override
    {
        Scope s(t, "setup");
        _grid = sweep::Grid();
        _grid.axis("df", {0, 1, 2})
            .axis("ah", {2, 4, 8, 16, 32})
            .axis("hw", {2, 4, 8, 16, 32})
            .axis("f", {1, 2, 4})
            .axis("n", {1, 2, 4, 8, 16, 32})
            .filter([](const sweep::Point &p) {
                return p.at("hw") >= p.at("f");
            });
        {
            Scope g(t, "sweep.grid");
            _points = _grid.points();
            _cfgs.clear();
            for (const auto &p : _points) {
                scalesim::Config cfg;
                cfg.ah = static_cast<int>(p.at("ah"));
                cfg.aw = 64 / cfg.ah;
                cfg.c = cfg.fh = cfg.fw = static_cast<int>(p.at("f"));
                cfg.h = cfg.w = static_cast<int>(p.at("hw"));
                cfg.n = static_cast<int>(p.at("n"));
                cfg.dataflow = dataflowOf(p.at("df"));
                _cfgs.push_back(cfg);
            }
        }
        {
            Scope b(t, "scalesim.batch");
            _ss = scalesim::simulateBatch(_cfgs);
        }
        drawSample();
        _workers.clear();
        for (unsigned w = 0; w < kThreads; ++w) {
            Scope c(t, "ir.context");
            _workers.push_back(std::make_unique<sim::Session>());
        }
        // One discarded warm-up point per worker: the 90th-percentile
        // cost point of the capped grid (the same for every seed).
        for (auto &session : _workers) {
            OpLog discard;
            simulatePoint(t, *session, _warmup, 0, discard);
        }
    }

    Phase
    runOps(double seconds, Tracer &t, int part) override
    {
        sweep::RunnerOptions ro;
        ro.threads = kThreads;
        sweep::SweepRunner runner(ro);
        const std::vector<sweep::Column> schema{
            {"df", sweep::ValueKind::Str, 4, 0},
            {"Ah", sweep::ValueKind::Int, 3, 0},
            {"Aw", sweep::ValueKind::Int, 3, 0},
            {"HW", sweep::ValueKind::Int, 3, 0},
            {"F", sweep::ValueKind::Int, 3, 0},
            {"N", sweep::ValueKind::Int, 3, 0},
            {"cycles", sweep::ValueKind::Int, 12, 0},
            {"peakWBWxPort", sweep::ValueKind::Real, 14, 3},
            {"loopIters", sweep::ValueKind::Int, 10, 0},
        };
        auto keyFn = [](const sweep::Point &p) {
            std::string key = "fig12";
            for (int64_t v : p.values())
                key += ' ' + std::to_string(v);
            return key;
        };

        Phase phase;
        auto t0 = Clock::now();
        // Each round runs on the next pair of CPUs; the run ends on a
        // whole rotation.
        const int pairs = std::max(1, cpuCount() / int(kThreads));
        for (int round = 0; secondsSince(t0) < seconds || round % pairs;
             ++round) {
            std::string dir = _o.workDir + "/fig12-" +
                              std::to_string(part) + "-" +
                              std::to_string(round);
            removeTree(dir);
            makeDirs(dir);
            sweep::JournalOptions jo;
            jo.journalPath = dir + "/journal.ndjson";
            jo.cachePath = dir + "/results.cache";
            jo.salt = "perfledger fig12";

            std::vector<OpLog> logs(kThreads);
            std::vector<double> rowSeconds(kThreads, 0.0);
            auto fn = [&](const sweep::Point &p, unsigned w) {
                auto r0 = Clock::now();
                auto cells = simulatePoint(t, *_workers[w], p,
                                           ++_opSeq, logs[w]);
                rowSeconds[w] += secondsSince(r0);
                return cells;
            };
            sweep::Table table{schema};
            sweep::ResumeStats stats;
            std::string err;
            // The runner's threads inherit this mask.
            rotateAffinity(round, kThreads);
            auto r0 = Clock::now();
            sweep::JournalStatus st;
            {
                Scope s(t, "sweep.round");
                st = sweep::runJournaledSweep(runner, _sample, schema,
                                              keyFn, fn, jo,
                                              sim::EngineOptions{},
                                              &table, &stats, &err);
            }
            double roundWall = secondsSince(r0);
            for (const auto &l : logs)
                phase.log.merge(l);
            if (st != sweep::JournalStatus::Ok)
                phase.log.note(std::string("sweep refused: ") +
                               sweep::journalStatusName(st) + ": " + err);
            if (stats.computed != _sample.size() ||
                table.numRows() != _sample.size())
                phase.log.note("round computed " +
                               std::to_string(stats.computed) + " of " +
                               std::to_string(_sample.size()) +
                               " points");
            double rowSum = 0;
            for (double s : rowSeconds)
                rowSum += s;
            _overheadMs += (roundWall * kThreads - rowSum) * 1e3;
            _computed += stats.computed;
            _pointsRun += _sample.size();
            removeTree(dir);
        }
        phase.wallSeconds = secondsSince(t0);
        rotateAffinity(-1);
        return phase;
    }

    void
    probe(Tracer &t, Layers &layers, OpLog &checks) override
    {
        // Every (kSample / kProbePoints)-th point in cost order: the
        // same set for a given seed, spread over the cost range.
        sim::Session &session = *_workers[0];
        Probe probe(t, checks);
        for (size_t i = 0; i < kProbePoints; ++i) {
            const sweep::Point &p =
                _sample[i * (_sample.size() / kProbePoints)];
            const scalesim::Config &cfg = _cfgs[p.index()];
            Scope s(t, "probe.point");
            session.rebuild([&](ir::Context &ctx) {
                Scope b(t, "systolic.build");
                return systolic::buildSystolicModule(ctx, cfg);
            });
            sim::SimReport first = probe.module(session, kWarmRuns);
            checks.check(first.cycles == systolic::expectedCycles(cfg),
                         "probe cycles != expectedCycles");
            probe.count(first);
        }
        probe.store(layers);
        layers["sweep.overhead_ms_per_point"] =
            _pointsRun ? _overheadMs / double(_pointsRun) : 0;
        layers["sweep.computed"] = double(_computed);
        checks.check(_computed == _pointsRun,
                     "sweep.computed != points attempted");
    }

    double peakRss() override { return peakRssMb(); }

    std::string
    keyLabel(uint32_t k) const override
    {
        return "cost decile " + std::to_string(k + 1) + " (est. ops " +
               std::to_string(_decileLo[k]) + ".." +
               std::to_string(_decileHi[k]) + ")";
    }

    std::vector<double>
    keyWeights() const override
    {
        return std::vector<double>(10, 0.1);
    }

    std::vector<std::string>
    provenance() const override
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "fig12: %zu-point grid, %zu under the %llu-cycle "
                      "cap, %zu sampled; %u sweep threads; journal + "
                      "result cache per round, no fsync",
                      _points.size(), _capped,
                      static_cast<unsigned long long>(kCycleCap),
                      _sample.size(), kThreads);
        return {buf};
    }

  private:
    /** Build + simulate one point on @p session; checks the cycles
     *  against the closed form and returns the table row. */
    std::vector<sweep::Cell>
    simulatePoint(Tracer &t, sim::Session &session,
                  const sweep::Point &p, uint64_t op, OpLog &log)
    {
        const scalesim::Config &cfg = _cfgs[p.index()];
        auto t0 = Clock::now();
        sim::SimReport rep;
        std::string err;
        {
            Scope s(t, "sweep.point", op);
            try {
                session.rebuild([&](ir::Context &ctx) {
                    Scope b(t, "systolic.build", op);
                    return systolic::buildSystolicModule(ctx, cfg);
                });
                Scope r(t, "sim.run", op);
                rep = session.run();
            } catch (const std::exception &e) {
                err = e.what();
            }
        }
        double ms = secondsSince(t0) * 1e3;
        uint32_t decile = _decileOf[p.index()];
        uint64_t want = systolic::expectedCycles(cfg);
        if (!err.empty())
            log.fail(ms, decile, "point " + std::to_string(p.index()) +
                                     ": " + err);
        else if (rep.cycles != want)
            log.fail(ms, decile,
                     "point " + std::to_string(p.index()) + ": cycles " +
                         std::to_string(rep.cycles) + " != expected " +
                         std::to_string(want));
        else
            log.ok(ms, decile);
        const auto &ss = _ss[p.index()];
        return {scalesim::dataflowName(cfg.dataflow),
                cfg.ah,
                cfg.aw,
                cfg.h,
                cfg.fh,
                cfg.n,
                static_cast<int64_t>(rep.cycles),
                ss.peakWriteBwTimesPortion,
                static_cast<int64_t>(ss.loopIterations)};
    }

    /** Stratified draw: capped points in cost order, split into kSample
     *  equal strata, one seeded pick per stratum. Simulated in
     *  descending cost so the round's tail (one thread idle) is
     *  short. */
    void
    drawSample()
    {
        std::vector<size_t> capped;
        for (size_t i = 0; i < _points.size(); ++i)
            if (systolic::expectedCycles(_cfgs[i]) <= kCycleCap)
                capped.push_back(i);
        auto cost = [&](size_t i) { return opsEstimate(_cfgs[i]); };
        std::stable_sort(capped.begin(), capped.end(),
                         [&](size_t a, size_t b) {
                             return cost(a) < cost(b);
                         });
        _capped = capped.size();
        _warmup = _points[capped[capped.size() * 9 / 10]];
        auto rng = seededRng(_o.seed, /*stream=*/12);
        _sample.clear();
        _decileOf.assign(_points.size(), 0);
        _decileLo.assign(10, ~0ull);
        _decileHi.assign(10, 0);
        for (size_t s = 0; s < kSample; ++s) {
            size_t lo = s * capped.size() / kSample;
            size_t hi = (s + 1) * capped.size() / kSample;
            std::uniform_int_distribution<size_t> pick(lo, hi - 1);
            size_t idx = capped[pick(rng)];
            _sample.push_back(_points[idx]);
            uint32_t d = static_cast<uint32_t>(s * 10 / kSample);
            _decileOf[idx] = d;
            _decileLo[d] = std::min(_decileLo[d], cost(idx));
            _decileHi[d] = std::max(_decileHi[d], cost(idx));
        }
        std::reverse(_sample.begin(), _sample.end());
    }

    Options _o;
    sweep::Grid _grid;
    std::vector<sweep::Point> _points;
    std::vector<scalesim::Config> _cfgs;
    std::vector<scalesim::Result> _ss;
    std::vector<sweep::Point> _sample;
    sweep::Point _warmup;
    size_t _capped = 0;
    std::vector<uint32_t> _decileOf;
    std::vector<uint64_t> _decileLo, _decileHi;
    std::vector<std::unique_ptr<sim::Session>> _workers;
    std::atomic<uint64_t> _opSeq{0};
    double _overheadMs = 0;
    uint64_t _computed = 0;
    uint64_t _pointsRun = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFig12Sweep(const Options &o)
{
    return std::make_unique<Fig12Sweep>(o);
}

} // namespace ledger
