/**
 * @file
 * serve_warm / serve_cold: a real eqserved (2 workers, 32-entry program
 * cache) on loopback, driven closed-loop by two serve::Client
 * connections from this process. An op is one `simulate` round trip.
 * Every run starts a fresh daemon, so no run inherits another's cache
 * or allocator history.
 *
 * serve_warm cycles over a fixed set of keys that all fit in the
 * cache; key weights are exact (each client runs whole cycles) and
 * chosen so p50 and p90 land mid-band in one key's latency (see
 * README.md). serve_cold sends only distinct, seeded structural configs
 * (small systolic arrays, SoC tile mixes, pipeline shapes), so every
 * request misses the cache and, past 32 entries, evicts.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ledger.hh"

#include "serve/client.hh"
#include "serve/models.hh"
#include "serve/protocol.hh"
#include "sim/session.hh"
#include "soc/soc.hh"
#include "systolic/generator.hh"

extern char **environ;

namespace ledger {
namespace {

using namespace eq;
using serve::Json;
using serve::ModelKey;

constexpr unsigned kClients = 2;
constexpr unsigned kDaemonWorkers = 2;
constexpr unsigned kCacheEntries = 32;
/** Cold configs pre-generated per client; a run that uses them all
 *  stops early (reported on stderr). */
constexpr size_t kColdPerClient = 12000;
/** Cold configs per client replayed in process by the traced run. */
constexpr size_t kColdReplay = 60;
/** Cycles of client 0's warm order replayed in process. */
constexpr int kWarmReplayCycles = 3;
/** Seconds the daemon's threads stay on one pair of CPUs. */
constexpr double kRotateSeconds = 2.0;

// ---------------------------------------------------------------------------
// Daemon process

class Daemon {
  public:
    ~Daemon() { stop(); }

    /** Spawn eqserved and wait for its port file. */
    bool
    start(const std::string &binary, const std::string &dir,
          std::string *err)
    {
        std::string portFile = dir + "/port";
        std::string logFile = dir + "/eqserved.log";
        ::unlink(portFile.c_str());
        std::vector<std::string> args = {
            binary,          "--host",
            "127.0.0.1",     "--port",
            "0",             "--port-file",
            portFile,        "--workers",
            std::to_string(kDaemonWorkers), "--cache-entries",
            std::to_string(kCacheEntries)};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, logFile.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        pid_t pid = -1;
        int rc = posix_spawn(&pid, binary.c_str(), &fa, nullptr,
                             argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            *err = "cannot spawn " + binary + ": " + std::strerror(rc);
            return false;
        }
        _pid = pid;
        auto t0 = Clock::now();
        while (secondsSince(t0) < 30.0) {
            std::ifstream f(portFile);
            long port = 0;
            if (f >> port && port > 0) {
                _port = static_cast<uint16_t>(port);
                return true;
            }
            int status = 0;
            if (::waitpid(_pid, &status, WNOHANG) == _pid) {
                _pid = -1;
                *err = "eqserved exited during start-up (see " +
                       logFile + ")";
                return false;
            }
            ::usleep(500);
        }
        *err = "eqserved wrote no port file within 30 s";
        return false;
    }

    uint16_t port() const { return _port; }
    int pid() const { return _pid; }

    /** Ask @p client's server to shut down, then reap the process
     *  (SIGKILL after 10 s). */
    void
    stop(serve::Client *client = nullptr)
    {
        if (_pid <= 0)
            return;
        if (client && client->connected())
            client->shutdownServer();
        else
            ::kill(_pid, SIGTERM);
        auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(_pid, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                ::kill(_pid, SIGKILL);
                ::waitpid(_pid, &status, 0);
                break;
            }
            ::usleep(1000);
        }
        _pid = -1;
    }

  private:
    int _pid = -1;
    uint16_t _port = 0;
};

// ---------------------------------------------------------------------------
// Keys and output checks

std::string
label(const ModelKey &k)
{
    char buf[160];
    switch (k.kind) {
    case serve::ModelKind::Systolic: {
        const auto &c = k.systolic;
        std::snprintf(buf, sizeof buf, "systolic %dx%d %s h=%d c=%d n=%d f=%d",
                      c.ah, c.aw, scalesim::dataflowName(c.dataflow).c_str(),
                      c.h, c.c, c.n, c.fh);
        break;
    }
    case serve::ModelKind::Soc: {
        const auto &c = k.soc;
        std::snprintf(buf, sizeof buf,
                      "soc tiles=%zu bus=%lld %s dmas=%d rounds=%d steps=%d",
                      c.accels.size(), static_cast<long long>(c.busBytesPerCycle),
                      c.busKind.c_str(), c.dmaEngines, c.rounds, c.steps);
        break;
    }
    case serve::ModelKind::Pipeline: {
        const auto &c = k.pipeline;
        std::snprintf(buf, sizeof buf,
                      "pipeline stages=%d batches=%d tile=%lld compute=%d",
                      c.stages, c.batches, static_cast<long long>(c.tileElems),
                      c.computePerElem);
        break;
    }
    }
    return buf;
}

/** Closed-form check of a report (served JSON shape). "" when the
 *  cycles (systolic) or connection bytes (soc, pipeline) match. */
std::string
checkReport(const ModelKey &key, const Json &report)
{
    auto connBytes = [&](size_t i, const char *field) -> int64_t {
        const Json *conns = report.find("connections");
        if (!conns || i >= conns->size())
            return -1;
        return conns->at(i).getInt(field, -1);
    };
    const Json *conns = report.find("connections");
    size_t nconns = conns ? conns->size() : 0;
    switch (key.kind) {
    case serve::ModelKind::Systolic: {
        int64_t want = int64_t(systolic::expectedCycles(key.systolic));
        int64_t got = report.getInt("cycles", -1);
        if (got != want)
            return "cycles " + std::to_string(got) + " != expected " +
                   std::to_string(want);
        return "";
    }
    case serve::ModelKind::Soc: {
        auto want = soc::expectedSocTraffic(key.soc);
        if (nconns != 1 + key.soc.accels.size())
            return "unexpected connection count";
        if (connBytes(0, "rd_B") != want.busReadBytes ||
            connBytes(0, "wr_B") != want.busWriteBytes)
            return "bus bytes differ from expectedSocTraffic";
        for (size_t a = 0; a < key.soc.accels.size(); ++a)
            if (connBytes(1 + a, "rd_B") != want.linkReadBytes[a] ||
                connBytes(1 + a, "wr_B") != want.linkWriteBytes[a])
                return "link bytes differ from expectedSocTraffic";
        return "";
    }
    case serve::ModelKind::Pipeline: {
        auto want = soc::expectedPipelineTraffic(key.pipeline);
        size_t stages = size_t(key.pipeline.stages);
        if (nconns != 2 + stages)
            return "unexpected connection count";
        if (connBytes(0, "wr_B") != want.inBytes ||
            connBytes(1, "wr_B") != want.outBytes)
            return "dma bytes differ from expectedPipelineTraffic";
        for (size_t s = 0; s < stages; ++s)
            if (connBytes(2 + s, "wr_B") != want.hopBytes)
                return "hop bytes differ from expectedPipelineTraffic";
        return "";
    }
    }
    return "unknown model";
}

/** The report with its only host-time field (wall_s) dropped. */
std::string
dumpWithoutWall(const Json &report)
{
    Json out = Json::object();
    for (const auto &m : report.members())
        if (m.first != "wall_s")
            out.set(m.first, m.second);
    return out.dump();
}

scalesim::Config
systolicCfg(int ah, int aw, scalesim::Dataflow df, int h, int c, int n,
            int f)
{
    scalesim::Config cfg;
    cfg.ah = ah;
    cfg.aw = aw;
    cfg.dataflow = df;
    cfg.h = cfg.w = h;
    cfg.c = c;
    cfg.n = n;
    cfg.fh = cfg.fw = f;
    return cfg;
}

/** The warm key set with its exact per-cycle multiplicities (20 ops
 *  per cycle). In latency order: five sub-2 ms SoC/pipeline keys fill
 *  the lowest 40% of ops, then three systolic keys take 20% each, so
 *  p50 sits mid-band in the 4x4 WS key and p90 mid-band in the 8x8 WS
 *  key, 10 points from either edge. */
struct WarmKey {
    ModelKey key;
    int weight;
};

std::vector<WarmKey>
warmKeys()
{
    using scalesim::Dataflow;
    soc::SocConfig quad = soc::SocConfig::dualSharedBus();
    quad.accels.push_back(quad.accels[0]);
    quad.accels.push_back(
        soc::TileSpec{2, 2, scalesim::Dataflow::OS, 8});
    soc::PipelineConfig deep;
    deep.stages = 6;
    deep.batches = 8;
    return {
        {ModelKey::pipelineKey(soc::PipelineConfig::small()), 2},
        {ModelKey::socKey(soc::SocConfig::dualSharedBus()), 2},
        {ModelKey::socKey(soc::SocConfig::heteroStarved()), 1},
        {ModelKey::socKey(quad), 2},
        {ModelKey::pipelineKey(deep), 1},
        {ModelKey::systolicKey(systolicCfg(4, 4, Dataflow::WS, 6, 1, 2, 3)), 4},
        {ModelKey::systolicKey(systolicCfg(4, 4, Dataflow::OS, 8, 2, 2, 2)), 4},
        {ModelKey::systolicKey(systolicCfg(8, 8, Dataflow::WS, 8, 2, 4, 2)), 4},
    };
}

/** One seeded cold config of family @p kind (small structures). */
ModelKey
coldKey(serve::ModelKind kind, std::mt19937_64 &rng)
{
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    switch (kind) {
    case serve::ModelKind::Systolic: {
        scalesim::Config c;
        c.ah = pick(2, 4);
        c.aw = pick(2, 4);
        c.dataflow = static_cast<scalesim::Dataflow>(pick(0, 2));
        c.h = pick(3, 8);
        c.w = pick(3, 8);
        c.fh = pick(1, std::min(3, c.h));
        c.fw = pick(1, std::min(3, c.w));
        c.c = pick(1, 2);
        c.n = pick(1, 3);
        return ModelKey::systolicKey(c);
    }
    case serve::ModelKind::Soc: {
        soc::SocConfig c;
        c.accels.clear();
        int tiles = pick(1, 3);
        for (int i = 0; i < tiles; ++i)
            c.accels.push_back(soc::TileSpec{
                pick(2, 3), pick(2, 3),
                pick(0, 1) ? scalesim::Dataflow::OS
                           : scalesim::Dataflow::WS,
                int64_t(4) << pick(0, 1)});
        c.busBytesPerCycle = int64_t(4) << pick(0, 2);
        c.busKind = pick(0, 1) ? "Window" : "Streaming";
        c.sramBanks = pick(0, 1) ? 4u : 2u;
        c.dmaEngines = pick(1, 2);
        c.rounds = pick(1, 2);
        c.steps = pick(2, 4);
        return ModelKey::socKey(c);
    }
    case serve::ModelKind::Pipeline: {
        soc::PipelineConfig c;
        c.stages = pick(2, 6);
        c.batches = pick(2, 7);
        c.tileElems = 4 * pick(2, 8);
        c.computePerElem = pick(1, 3);
        c.dmaBytesPerCycle = int64_t(2) << pick(0, 3);
        c.hopBytesPerCycle = int64_t(1) << pick(0, 3);
        // elem_bytes stays at its default: buildPipelineModule ignores
        // it while expectedPipelineTraffic scales with it, so any other
        // value fails the traffic check (a known defect, left to a
        // program change).
        return ModelKey::pipelineKey(c);
    }
    }
    return ModelKey();
}

/** Cold family schedule: exact shares per client (half systolic, a
 *  quarter each SoC and pipeline). */
const serve::ModelKind kColdPeriod[] = {
    serve::ModelKind::Systolic, serve::ModelKind::Soc,
    serve::ModelKind::Systolic, serve::ModelKind::Pipeline};
constexpr size_t kColdPeriodLen = 4;

// ---------------------------------------------------------------------------

class Serve : public Workload {
  public:
    Serve(const Options &o, bool warm) : _o(o), _warm(warm)
    {
        if (_warm) {
            for (const auto &wk : warmKeys()) {
                uint32_t k = static_cast<uint32_t>(_keys.size());
                _keys.push_back(wk.key);
                for (int i = 0; i < wk.weight; ++i)
                    _cycle.push_back(k);
            }
            for (unsigned c = 0; c < kClients; ++c) {
                auto order = _cycle;
                auto rng = seededRng(o.seed, 100 + c);
                std::shuffle(order.begin(), order.end(), rng);
                _order.push_back(order);
            }
        } else {
            // Distinct configs across both clients and the warm-up.
            auto rng = seededRng(o.seed, 200);
            std::unordered_set<uint64_t> seen;
            auto fresh = [&](serve::ModelKind kind) {
                // The families' config spaces are several times larger
                // than the configs drawn, so duplicates are rare.
                for (int tries = 0;; ++tries) {
                    ModelKey k = coldKey(kind, rng);
                    if (seen.insert(k.hash()).second)
                        return k;
                    if (tries > 10000)
                        throw std::runtime_error(
                            "cold config space exhausted");
                }
            };
            _coldWarmup = fresh(serve::ModelKind::Systolic);
            _order.assign(kClients, {});
            for (size_t i = 0; i < kColdPerClient; ++i) {
                for (unsigned c = 0; c < kClients; ++c) {
                    auto kind = kColdPeriod[i % kColdPeriodLen];
                    _order[c].push_back(
                        static_cast<uint32_t>(_keys.size()));
                    _keys.push_back(fresh(kind));
                }
            }
        }
    }

    ~Serve() override { finish(); }

    void
    setUp(Tracer &t) override
    {
        Scope s(t, "setup");
        std::string dir = _o.workDir + "/serve-" + std::to_string(_daemons++);
        makeDirs(dir);
        std::string err;
        {
            Scope d(t, "serve.spawn");
            if (!_daemon.start(_o.eqserved, dir, &err))
                throw std::runtime_error(err);
        }
        _clients.clear();
        for (unsigned c = 0; c < kClients; ++c) {
            Scope d(t, "serve.connect");
            _clients.push_back(std::make_unique<serve::Client>());
            if (!_clients.back()->connect("127.0.0.1", _daemon.port(), &err))
                throw std::runtime_error("connect: " + err);
        }
        // Warm: one priming pass over every key, so the timed ops all
        // hit the cache. Cold: one request outside the op set.
        std::vector<ModelKey> prime;
        if (_warm)
            prime = _keys;
        else
            prime.push_back(_coldWarmup);
        for (const auto &k : prime) {
            Scope p(t, "serve.prime");
            auto r = _clients[0]->simulate(k);
            if (!r.ok)
                throw std::runtime_error("priming " + label(k) +
                                         " failed: " + r.error);
        }
        if (!_clients[0]->stats(&_statsBefore, &err))
            throw std::runtime_error("stats: " + err);
        if (const Json *srv = _statsBefore.find("server"))
            _daemonBackend = srv->getStr("backend", "?");
        _next.assign(kClients, 0);
    }

    Phase
    runOps(double seconds, Tracer &t, int part) override
    {
        // Cold runs: the traced phase draws from the second half of
        // each client's config list, where the replay probe looks.
        if (!_warm && part == 2)
            for (auto &n : _next)
                n = std::max(n, kColdPerClient / 2);
        std::vector<OpLog> logs(kClients);
        std::vector<std::vector<double>> overhead(kClients);
        bool traced = part == 2;
        // The daemon's threads move to the next pair of CPUs every
        // kRotateSeconds; the clients stop after a whole rotation.
        const int steps = rotationSteps(kDaemonWorkers);
        const int total =
            steps * std::max(1, int(seconds / (kRotateSeconds * steps) +
                                    0.5));
        std::atomic<bool> stop{false};
        auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                clientLoop(c, stop, t, traced, logs[c], overhead[c]);
            });
        }
        for (int step = 0; step < total; ++step) {
            pinDaemon(step);
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             (step + 1) * kRotateSeconds)));
        }
        stop = true;
        for (auto &th : threads)
            th.join();
        Phase phase;
        phase.wallSeconds = secondsSince(t0);
        pinDaemon(-1);
        for (unsigned c = 0; c < kClients; ++c) {
            phase.log.merge(logs[c]);
            _overheadMs.insert(_overheadMs.end(), overhead[c].begin(),
                               overhead[c].end());
        }
        return phase;
    }

    void
    probe(Tracer &t, Layers &layers, OpLog &checks) override
    {
        Json after;
        std::string err;
        checks.check(_clients[0]->stats(&after, &err), "stats: " + err);
        auto delta = [&](const char *group, const char *field) {
            const Json *a = after.find(group);
            const Json *b = _statsBefore.find(group);
            return double((a ? a->getInt(field, 0) : 0) -
                          (b ? b->getInt(field, 0) : 0));
        };
        double hits = delta("cache", "hits");
        double misses = delta("cache", "misses");
        layers["serve.cache_hits"] = hits;
        layers["serve.cache_misses"] = misses;
        layers["serve.cache_evictions"] = delta("cache", "evictions");
        layers["serve.cache_hit_ratio"] =
            hits + misses > 0 ? hits / (hits + misses) : 0;
        layers["serve.rejected"] = delta("scheduler", "rejected") +
                                   delta("scheduler", "shed") +
                                   delta("scheduler", "expired");
        layers["serve.overhead_ms"] = median(_overheadMs);
        checks.check(layers["serve.rejected"] == 0,
                     "the scheduler rejected, shed or expired requests");

        // In-process replay through the calls the daemon makes.
        std::vector<uint32_t> seq;
        if (_warm) {
            for (int r = 0; r < kWarmReplayCycles; ++r)
                seq.insert(seq.end(), _order[0].begin(), _order[0].end());
        } else {
            for (unsigned c = 0; c < kClients; ++c)
                for (size_t i = 0; i < kColdReplay; ++i)
                    seq.push_back(_order[c][kColdPerClient / 2 + i]);
        }
        // Counters cover one warm cycle / every cold replay config.
        const size_t counted = _warm ? _order[0].size() : seq.size();
        std::vector<std::unique_ptr<sim::Session>> sessions(_keys.size());
        Probe probe(t, checks);
        for (size_t i = 0; i < seq.size(); ++i) {
            uint32_t k = seq[i];
            const ModelKey &key = _keys[k];
            Scope r(t, "replay.request", i + 1);
            sim::SimReport rep;
            auto &session = sessions[k];
            if (!session) {
                {
                    Scope c(t, "ir.context", i + 1);
                    session = std::make_unique<sim::Session>();
                }
                session->rebuild([&](ir::Context &ctx) {
                    Scope b(t,
                            key.kind == serve::ModelKind::Systolic
                                ? "systolic.build"
                                : "soc.build",
                            i + 1);
                    return key.build(ctx);
                });
                // One warm run right away isolates first-run cost (cold
                // keys run only once in the daemon).
                rep = probe.module(*session, 1);
            } else {
                rep = probe.warm(*session);
            }
            {
                Scope j(t, "report.json", i + 1);
                std::string line = serve::reportToJson(rep).dump();
                (void)line;
            }
            Json local = serve::reportToJson(rep, /*include_wall=*/false);
            checks.check(checkReport(key, local).empty(),
                         label(key) + ": replay " + checkReport(key, local));
            auto served = _servedDump.find(k);
            if (served != _servedDump.end())
                checks.check(served->second == local.dump(),
                             label(key) +
                                 ": served report differs from its "
                                 "in-process replay");
            if (i < counted)
                probe.count(rep);
            if (!_warm)
                sessions[k].reset(); // the daemon's cache would evict
        }
        probe.store(layers);
    }

    double
    peakRss() override
    {
        return peakRssMb(_daemon.pid());
    }

    void
    finish() override
    {
        _daemon.stop(_clients.empty() ? nullptr : _clients[0].get());
        _clients.clear();
    }

    std::string
    keyLabel(uint32_t k) const override
    {
        if (_warm)
            return label(_keys[k]);
        return serve::modelName(static_cast<serve::ModelKind>(k));
    }

    std::vector<double>
    keyWeights() const override
    {
        std::vector<double> w;
        if (_warm) {
            w.assign(_keys.size(), 0.0);
            for (uint32_t k : _cycle)
                w[k] += 1.0 / double(_cycle.size());
        } else {
            w.assign(3, 0.0);
            for (auto kind : kColdPeriod)
                w[static_cast<size_t>(kind)] += 1.0 / kColdPeriodLen;
        }
        return w;
    }

    /** The daemon would inherit a pinned mask. */
    bool inProcess() const override { return false; }

    std::vector<std::string>
    provenance() const override
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s: eqserved --workers %u --cache-entries %u "
                      "(stats backend=%s), %u closed-loop clients, %zu %s",
                      _warm ? "serve_warm" : "serve_cold", kDaemonWorkers,
                      kCacheEntries, _daemonBackend.c_str(), kClients,
                      _keys.size(),
                      _warm ? "keys" : "distinct pre-generated configs");
        return {buf};
    }

  private:
    /** Pin every thread of the daemon (rotateAffinity slot). */
    void
    pinDaemon(int slot)
    {
        std::string dir =
            "/proc/" + std::to_string(_daemon.pid()) + "/task";
        DIR *d = ::opendir(dir.c_str());
        if (!d)
            return;
        while (struct dirent *e = ::readdir(d)) {
            int tid = std::atoi(e->d_name);
            if (tid > 0)
                rotateAffinity(slot, kDaemonWorkers, tid);
        }
        ::closedir(d);
    }

    void
    clientLoop(unsigned c, const std::atomic<bool> &stop, Tracer &t,
               bool traced, OpLog &log, std::vector<double> &overhead)
    {
        serve::Client &client = *_clients[c];
        const auto &order = _order[c];
        // Whole cycles (warm) or whole family periods (cold) keep the
        // key weights exact.
        const size_t period = _warm ? order.size() : kColdPeriodLen;
        while (!stop) {
            if (_next[c] + period > order.size()) {
                if (_warm) {
                    _next[c] = 0;
                } else {
                    std::fprintf(stderr, "eqledger: client %u used all "
                                         "%zu cold configs\n",
                                 c, order.size());
                    return;
                }
            }
            for (size_t i = 0; i < period; ++i) {
                uint32_t k = order[_next[c]++];
                const ModelKey &key = _keys[k];
                uint32_t cls = _warm ? k : static_cast<uint32_t>(key.kind);
                auto r0 = Clock::now();
                serve::Client::SimulateResult r;
                {
                    Scope s(t, "serve.request", k + 1);
                    r = client.simulate(key);
                }
                double ms = secondsSince(r0) * 1e3;
                if (!r.ok) {
                    log.fail(ms, cls,
                             label(key) + ": " +
                                 serve::errorCodeName(r.code) + ": " +
                                 r.error);
                    continue;
                }
                std::string bad = checkReport(key, r.report);
                if (!bad.empty()) {
                    log.fail(ms, cls, label(key) + ": " + bad);
                    continue;
                }
                log.ok(ms, cls);
                if (traced) {
                    overhead.push_back(
                        ms - r.report.find("wall_s")->asReal() * 1e3);
                    recordServed(k, r.report, log);
                }
            }
        }
    }

    /** Traced run: keep served reports (minus wall_s) for the replay,
     *  and require every served copy of one key to be identical. */
    void
    recordServed(uint32_t k, const Json &report, OpLog &log)
    {
        std::string dump = dumpWithoutWall(report);
        std::lock_guard<std::mutex> g(_servedMu);
        auto it = _servedDump.find(k);
        if (it == _servedDump.end())
            _servedDump.emplace(k, std::move(dump));
        else if (it->second != dump)
            log.note(label(_keys[k]) + ": served reports differ");
    }

    Options _o;
    bool _warm;
    std::vector<ModelKey> _keys;
    std::vector<uint32_t> _cycle;              ///< warm: one cycle
    std::vector<std::vector<uint32_t>> _order; ///< per client
    std::vector<size_t> _next;                 ///< per client cursor
    ModelKey _coldWarmup;
    Daemon _daemon;
    int _daemons = 0;
    std::vector<std::unique_ptr<serve::Client>> _clients;
    Json _statsBefore;
    std::string _daemonBackend = "?";
    std::vector<double> _overheadMs;
    std::mutex _servedMu;
    std::map<uint32_t, std::string> _servedDump;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const Options &o, bool warm)
{
    return std::make_unique<Serve>(o, warm);
}

} // namespace ledger
