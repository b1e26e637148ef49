/**
 * @file
 * Shared pieces of the performance ledger: host-time spans written as
 * Chrome Trace Event Format, per-op logs, and the workload interface.
 *
 * Spans are recorded from the ledger's own code around calls into the
 * simulator's public API (one span per layer boundary); nothing inside
 * the library is instrumented. With tracing off a span costs one
 * branch.
 */

#ifndef EQ_PERFLEDGER_LEDGER_HH
#define EQ_PERFLEDGER_LEDGER_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "sim/session.hh"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
    const char *name;
    int64_t startNs;
    int64_t endNs;
    uint64_t op;     ///< op id the span belongs to (0 = set-up/probe)
    uint64_t id;
    uint64_t parent; ///< 0 = root
    unsigned tid;
};

/** In-memory span store; written out once, when the run ends. */
class Tracer {
  public:
    bool enabled() const { return _on.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { _on.store(on); }

    /** Open a span on the calling thread; returns its id. */
    uint64_t open();
    /** Close span @p id opened at @p start_ns. */
    void close(const char *name, uint64_t id, int64_t start_ns,
               uint64_t op);

    static int64_t nowNs();

    /** Per-name calls / total / self time, in first-seen order. */
    struct LayerTime {
        std::string name;
        uint64_t calls = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::vector<LayerTime> layerTimes() const;

    /** Write every span as a Trace Event Format "X" slice. */
    bool writeChromeTrace(const std::string &path) const;

    size_t size() const { return _spans.size(); }

  private:
    std::atomic<bool> _on{false};
    std::atomic<uint64_t> _nextId{1};
    mutable std::mutex _mu;
    std::vector<Span> _spans;
};

/** RAII span: records [construction, destruction) when tracing is on. */
class Scope {
  public:
    Scope(Tracer &t, const char *name, uint64_t op = 0)
        : _t(t), _name(name), _op(op)
    {
        if (_t.enabled()) {
            _start = Tracer::nowNs();
            _id = _t.open();
        }
    }
    ~Scope()
    {
        if (_id)
            _t.close(_name, _id, _start, _op);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &_t;
    const char *_name;
    uint64_t _op;
    uint64_t _id = 0;
    int64_t _start = 0;
};

// ---------------------------------------------------------------------------
// Op logs and results

/** One thread's record of the ops it ran. */
struct OpLog {
    std::vector<double> latencyMs;
    std::vector<uint32_t> key; ///< key/class index per op (same order)
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few messages

    /** An op that took @p ms and passed its checks. */
    void ok(double ms, uint32_t k)
    {
        ++attempted;
        latencyMs.push_back(ms);
        key.push_back(k);
    }
    void fail(double ms, uint32_t k, const std::string &why);
    /** A check that is not an op of its own (probe phase). */
    void check(bool pass, const std::string &why)
    {
        ++attempted;
        if (!pass)
            note(why);
    }
    /** Count a failure and keep its message (first few only). */
    void note(const std::string &why);
    void merge(const OpLog &o);
};

/** What one measured phase produced. */
struct Phase {
    OpLog log;
    double wallSeconds = 0.0;
    /** Successful ops per wall second. */
    double throughput() const
    {
        return wallSeconds > 0
                   ? double(log.attempted - log.failed) / wallSeconds
                   : 0.0;
    }
};

/** Quantile by linear interpolation between closest ranks. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/** VmHWM of @p pid (0 = self) in MiB, or -1 when unreadable. */
double peakRssMb(int pid = 0);

/** Per-layer metrics of a traced run, by BENCHMARK.json name. */
using Layers = std::map<std::string, double>;

/**
 * The traced run's probe of pinned modules: each module is verified,
 * run once (first run) and then again (warm runs) under spans, so first
 * and warm runs compare on the same modules. Work counters sum the
 * reports passed to count().
 */
class Probe {
  public:
    Probe(Tracer &t, OpLog &checks) : _t(t), _checks(checks) {}

    /** Probe @p session's freshly rebuilt module with @p warm_runs warm
     *  runs; returns the first run's report. */
    eq::sim::SimReport module(eq::sim::Session &session, int warm_runs);
    /** One more warm run of a probed module. */
    eq::sim::SimReport warm(eq::sim::Session &session);
    /** Add @p r's work to the sim.ops/events/cycles/dispatches sums. */
    void count(const eq::sim::SimReport &r);
    /** Store the sim.* per-layer metrics. */
    void store(Layers &layers) const;

  private:
    Tracer &_t;
    OpLog &_checks;
    uint64_t _ops = 0, _events = 0, _cycles = 0, _dispatches = 0;
    uint64_t _warmOps = 0;
    double _warmNs = 0;
    double _extraMs = 0;
    int _modules = 0;
};

/** Everything the ledger needs from one workload. */
class Workload {
  public:
    virtual ~Workload() = default;
    /** The workload's set-up; timed by the caller, which repeats it
     *  (calling finish() in between) and reports the median. */
    virtual void setUp(Tracer &t) = 0;
    /** Run ops for about @p seconds (whole cycles of the seeded
     *  sequence); @p part separates the phases of a traced run. */
    virtual Phase runOps(double seconds, Tracer &t, int part) = 0;
    /** Traced run only: deterministic probes (first vs warm runs,
     *  in-process replays, work counters) after the timed phases. */
    virtual void probe(Tracer &t, Layers &layers, OpLog &checks) = 0;
    /** Peak RSS of the process that simulates. */
    virtual double peakRss() = 0;
    /** Stop everything the workload started. */
    virtual void finish() {}
    /** Label of key/class @p k for the per-key table. */
    virtual std::string keyLabel(uint32_t k) const = 0;
    /** Exact share of ops per key (empty: not weighted). */
    virtual std::vector<double> keyWeights() const { return {}; }
    /** True when set-up runs on the calling thread only, so the set-up
     *  repetitions may rotate over CPUs (see rotateAffinity). */
    virtual bool inProcess() const { return true; }
    /** Lines of provenance printed before the results. */
    virtual std::vector<std::string> provenance() const { return {}; }
};

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string eqserved; ///< daemon binary (serve_* only)
    std::string workDir;  ///< working directory inside the checkout
};

std::unique_ptr<Workload> makeFig12Sweep(const Options &o);
std::unique_ptr<Workload> makeServe(const Options &o, bool warm);
std::unique_ptr<Workload> makeLowerConv(const Options &o);

/** Seeded generator shared by every workload (SplitMix64-seeded). */
std::mt19937_64 seededRng(uint64_t seed, uint64_t stream);

/**
 * The vCPUs of a shared VM differ in speed, and a busy thread tends to
 * stay on the vCPU it started on, so an unpinned run measures whichever
 * vCPUs it landed on. The workloads therefore rotate the threads that
 * do the work over all allowed CPUs, step by step, and end a run on a
 * whole rotation, so every run samples every CPU alike.
 * Pins thread @p tid (0 = the caller) to the @p slot-th group of
 * @p width consecutive allowed CPUs, round-robin; slot < 0 restores the
 * start-up mask. Threads created while pinned inherit the mask. Best
 * effort: a failed call leaves the affinity unchanged.
 */
void rotateAffinity(int slot, int width = 1, int tid = 0);
/** Number of CPUs rotateAffinity rotates over. */
int cpuCount();
/** Distinct groups of @p width CPUs one rotation visits. */
inline int rotationSteps(int width) { return std::max(1, cpuCount() / width); }

/** Remove @p path recursively (best effort). */
void removeTree(const std::string &path);
/** mkdir -p. */
bool makeDirs(const std::string &path);

} // namespace ledger

#endif // EQ_PERFLEDGER_LEDGER_HH
