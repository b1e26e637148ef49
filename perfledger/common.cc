/**
 * @file
 * Tracer, op-log, statistics and filesystem helpers of the ledger.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>

#include <ftw.h>
#include <sched.h>
#include <sys/stat.h>

#include "ledger.hh"

#include "base/fsutil.hh"

namespace ledger {

namespace {

thread_local std::vector<uint64_t> t_open; ///< open span ids, innermost last

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{1};
    thread_local unsigned idx = next.fetch_add(1);
    return idx;
}

} // namespace

int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

uint64_t
Tracer::open()
{
    uint64_t id = _nextId.fetch_add(1);
    t_open.push_back(id);
    return id;
}

void
Tracer::close(const char *name, uint64_t id, int64_t start_ns,
              uint64_t op)
{
    int64_t end = nowNs();
    // Scopes nest, so the span being closed is the innermost open one.
    t_open.pop_back();
    uint64_t parent = t_open.empty() ? 0 : t_open.back();
    std::lock_guard<std::mutex> g(_mu);
    _spans.push_back(
        Span{name, start_ns, end, op, id, parent, threadIndex()});
}

std::vector<Tracer::LayerTime>
Tracer::layerTimes() const
{
    // A span's self time is its duration minus the part its children
    // cover; children of one span never overlap (they ran on the same
    // thread, nested).
    std::unordered_map<uint64_t, int64_t> childNs;
    for (const auto &s : _spans)
        if (s.parent)
            childNs[s.parent] += s.endNs - s.startNs;
    std::vector<LayerTime> out;
    std::unordered_map<std::string, size_t> slot;
    for (const auto &s : _spans) {
        auto it = slot.find(s.name);
        if (it == slot.end()) {
            it = slot.emplace(s.name, out.size()).first;
            out.push_back(LayerTime{s.name});
        }
        LayerTime &l = out[it->second];
        int64_t dur = s.endNs - s.startNs;
        auto c = childNs.find(s.id);
        int64_t self = dur - (c == childNs.end() ? 0 : c->second);
        ++l.calls;
        l.totalMs += dur * 1e-6;
        l.selfMs += self * 1e-6;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    int64_t t0 = _spans.empty() ? 0 : _spans.front().startNs;
    for (const auto &s : _spans)
        t0 = std::min(t0, s.startNs);
    char buf[512];
    bool first = true;
    for (const auto &s : _spans) {
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"op\":%llu,\"id\":%llu,\"parent\":%llu}}",
            first ? "" : ",\n", s.name, (s.startNs - t0) * 1e-3,
            (s.endNs - s.startNs) * 1e-3, s.tid,
            static_cast<unsigned long long>(s.op),
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent));
        out += buf;
        first = false;
    }
    out += "\n]}\n";
    return eq::fs::writeFileAtomic(path, out);
}

eq::sim::SimReport
Probe::module(eq::sim::Session &session, int warm_runs)
{
    std::string err;
    {
        Scope v(_t, "ir.verify");
        err = session.module()->verify();
    }
    _checks.check(err.empty(), "verify: " + err);
    auto f0 = Clock::now();
    eq::sim::SimReport first;
    {
        Scope r(_t, "sim.run_first");
        first = session.run();
    }
    double firstMs = secondsSince(f0) * 1e3;
    if (warm_runs > 0) {
        double warmMs = 0;
        for (int k = 0; k < warm_runs; ++k) {
            auto w0 = Clock::now();
            eq::sim::SimReport w = warm(session);
            warmMs += secondsSince(w0) * 1e3;
            _checks.check(w.cycles == first.cycles &&
                              w.opsExecuted == first.opsExecuted,
                          "warm run differs from the first run");
        }
        _extraMs += firstMs - warmMs / warm_runs;
        ++_modules;
    }
    return first;
}

eq::sim::SimReport
Probe::warm(eq::sim::Session &session)
{
    auto w0 = Clock::now();
    eq::sim::SimReport r;
    {
        Scope s(_t, "sim.run_warm");
        r = session.run();
    }
    _warmNs += secondsSince(w0) * 1e9;
    _warmOps += r.opsExecuted;
    return r;
}

void
Probe::count(const eq::sim::SimReport &r)
{
    _ops += r.opsExecuted;
    _events += r.eventsExecuted;
    _cycles += r.cycles;
    _dispatches += r.dispatchCount;
}

void
Probe::store(Layers &layers) const
{
    layers["sim.first_run_extra_ms"] = _modules ? _extraMs / _modules : 0;
    layers["sim.ns_per_op"] = _warmOps ? _warmNs / double(_warmOps) : 0;
    layers["sim.ops"] = double(_ops);
    layers["sim.events"] = double(_events);
    layers["sim.cycles"] = double(_cycles);
    layers["sim.dispatches"] = double(_dispatches);
}

void
OpLog::fail(double ms, uint32_t k, const std::string &why)
{
    ++attempted;
    latencyMs.push_back(ms);
    key.push_back(k);
    note(why);
}

void
OpLog::note(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
OpLog::merge(const OpLog &o)
{
    latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                     o.latencyMs.end());
    key.insert(key.end(), o.key.begin(), o.key.end());
    attempted += o.attempted;
    failed += o.failed;
    for (const auto &f : o.failures)
        if (failures.size() < 8)
            failures.push_back(f);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb(int pid)
{
    std::string path = pid ? "/proc/" + std::to_string(pid) + "/status"
                           : "/proc/self/status";
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return -1.0;
}

std::mt19937_64
seededRng(uint64_t seed, uint64_t stream)
{
    // SplitMix64 finalizer: nearby (seed, stream) pairs give unrelated
    // engine states.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return std::mt19937_64(z ^ (z >> 31));
}

namespace {

/** The CPUs this process may use, as of start-up. */
const std::vector<int> &
startCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t m;
        CPU_ZERO(&m);
        if (sched_getaffinity(0, sizeof m, &m) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &m))
                    out.push_back(c);
        return out;
    }();
    return cpus;
}

} // namespace

int
cpuCount()
{
    return std::max<int>(1, static_cast<int>(startCpus().size()));
}

void
rotateAffinity(int slot, int width, int tid)
{
    const auto &cpus = startCpus();
    if (cpus.empty())
        return;
    cpu_set_t m;
    CPU_ZERO(&m);
    for (size_t i = 0; i < cpus.size(); ++i)
        if (slot < 0 || i < size_t(width))
            CPU_SET(cpus[slot < 0 ? i
                                  : (size_t(slot) * width + i) %
                                        cpus.size()],
                    &m);
    sched_setaffinity(tid, sizeof m, &m);
}

void
removeTree(const std::string &path)
{
    auto rm = [](const char *p, const struct stat *, int, struct FTW *) {
        return ::remove(p);
    };
    ::nftw(path.c_str(), rm, 16, FTW_DEPTH | FTW_PHYS);
}

bool
makeDirs(const std::string &path)
{
    std::string cur;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!cur.empty())
                ::mkdir(cur.c_str(), 0755);
        }
        if (i < path.size())
            cur += path[i];
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace ledger
