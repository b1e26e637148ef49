/**
 * @file
 * eqledger: the benchmark runner. Runs one workload for a fixed time,
 * checks every op's output, and prints the end-to-end metrics (or,
 * with --trace 1, the per-layer metrics) as the last line of stdout:
 *
 *   {"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,
 *    "unit":…},…}}
 *
 * run.py builds this binary and eqserved from source and invokes it;
 * see README.md for the workloads and what each metric measures.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>


#include "ledger.hh"

#include "sim/engine.hh"

extern char **environ;

using namespace ledger;

namespace {

/** An untraced run sets up kSetupRounds rounds of k set-ups (one per
 *  CPU for in-process workloads, kServeRound for the daemon ones);
 *  setup_s is the median over rounds of each round's mean. */
constexpr int kSetupRounds = 3;
constexpr int kServeRound = 3;

/** Per-layer metrics timed by spans: metric name -> span name. Each
 *  reads the mean self time per call, in ms. */
const std::pair<const char *, const char *> kSpanMetrics[] = {
    {"ir.context_ms", "ir.context"},
    {"ir.verify_ms", "ir.verify"},
    {"systolic.build_ms", "systolic.build"},
    {"soc.build_ms", "soc.build"},
    {"passes.affine_ms", "passes.affine"},
    {"passes.reassign_ms", "passes.reassign"},
    {"passes.systolic_ms", "passes.systolic"},
    {"scalesim.batch_ms", "scalesim.batch"},
    {"sim.run_first_ms", "sim.run_first"},
    {"sim.run_warm_ms", "sim.run_warm"},
    {"report.json_ms", "report.json"},
};

/** Per-layer metrics the workloads derive (0 where the layer is not on
 *  the workload's path), with their units. */
const std::pair<const char *, const char *> kDerivedMetrics[] = {
    {"sim.first_run_extra_ms", "ms"},
    {"sim.ns_per_op", "ns"},
    {"sim.ops", "count"},
    {"sim.events", "count"},
    {"sim.cycles", "count"},
    {"sim.dispatches", "count"},
    {"serve.overhead_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.rejected", "count"},
    {"sweep.overhead_ms_per_point", "ms"},
    {"sweep.computed", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "eqledger: %s\n"
                 "usage: eqledger --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--eqserved PATH] "
                 "[--trace-out PATH]\n",
                 msg);
    std::exit(2);
}

const char *
backendName(eq::sim::Backend b)
{
    switch (b) {
    case eq::sim::Backend::Interp: return "interp";
    case eq::sim::Backend::Compiled: return "compiled";
    default: return "auto";
    }
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(), v,
                      metrics[i].unit.c_str());
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/**
 * The per-key table of a traced run: each key's latency band in rank
 * order (keys sorted by median latency, band width = the key's share
 * of ops), and where the run's p50 and p90 fall. A percentile near a
 * band edge flips between two keys' latencies from run to run, which
 * is the noise the exact key weights are chosen to avoid.
 */
void
printKeyTable(const Workload &w, const OpLog &log)
{
    struct Row {
        uint32_t key;
        std::vector<double> ms;
        double med = 0;
    };
    std::vector<Row> rows;
    for (size_t i = 0; i < log.latencyMs.size(); ++i) {
        uint32_t k = log.key[i];
        auto it = std::find_if(rows.begin(), rows.end(),
                               [&](const Row &r) { return r.key == k; });
        if (it == rows.end()) {
            rows.push_back(Row{k, {}, 0});
            it = rows.end() - 1;
        }
        it->ms.push_back(log.latencyMs[i]);
    }
    for (auto &r : rows)
        r.med = median(r.ms);
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.med < b.med; });
    const double n = double(log.latencyMs.size());
    const double p50 = quantile(log.latencyMs, 0.5);
    const double p90 = quantile(log.latencyMs, 0.9);
    std::printf("# per-key latency bands (%zu ops; p50 %.4f ms, p90 "
                "%.4f ms)\n",
                log.latencyMs.size(), p50, p90);
    std::printf("# %-44s %8s %7s %10s %10s %15s\n", "key", "ops",
                "share%", "p50_ms", "p90_ms", "rank band %");
    double lo = 0;
    for (const auto &r : rows) {
        double hi = lo + 100.0 * double(r.ms.size()) / n;
        std::string mark;
        for (double q : {50.0, 90.0}) {
            if (q >= lo && q < hi) {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "  <- p%.0f (%.1f pts from the band edge)",
                              q, std::min(q - lo, hi - q));
                mark += buf;
            }
        }
        std::printf("# %-44s %8zu %7.2f %10.4f %10.4f %6.1f..%6.1f%s\n",
                    w.keyLabel(r.key).c_str(), r.ms.size(),
                    100.0 * double(r.ms.size()) / n, r.med,
                    quantile(r.ms, 0.9), lo, hi, mark.c_str());
        lo = hi;
    }
}

/** Check each key's op count against its exact weight. */
void
checkKeyWeights(const Workload &w, const OpLog &log, OpLog &checks)
{
    std::vector<double> weights = w.keyWeights();
    if (weights.empty() || log.key.empty())
        return;
    std::vector<uint64_t> count(weights.size(), 0);
    for (uint32_t k : log.key)
        if (k < count.size())
            ++count[k];
    for (size_t k = 0; k < weights.size(); ++k) {
        double share = double(count[k]) / double(log.key.size());
        if (std::fabs(share - weights[k]) > 1e-9)
            checks.note("key " + w.keyLabel(uint32_t(k)) + " share " +
                        std::to_string(share) + " != weight " +
                        std::to_string(weights[k]));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string traceOut;
    bool haveSeed = false, haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            opts.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            opts.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            opts.trace = v == "1";
        } else if (a == "--eqserved") {
            opts.eqserved = v;
        } else if (a == "--work-dir") {
            opts.workDir = v;
        } else if (a == "--trace-out") {
            traceOut = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || opts.workDir.empty())
        usage("--workload, --seed and --work-dir are required");
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");

#ifndef NDEBUG
    std::fprintf(stderr, "eqledger: refusing to measure a build without "
                         "NDEBUG (configure with "
                         "CMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    // Every EQ_* knob changes what the simulator does; the launcher
    // scrubs them and worker/thread counts are passed explicitly.
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "EQ_", 3) == 0) {
            std::fprintf(stderr,
                         "eqledger: environment variable %s is set; "
                         "refusing to measure (unset every EQ_*)\n",
                         *e);
            return 2;
        }
    }

    std::unique_ptr<Workload> w;
    if (opts.workload == "fig12_sweep")
        w = makeFig12Sweep(opts);
    else if (opts.workload == "serve_warm")
        w = makeServe(opts, /*warm=*/true);
    else if (opts.workload == "serve_cold")
        w = makeServe(opts, /*warm=*/false);
    else if (opts.workload == "lower_conv")
        w = makeLowerConv(opts);
    else
        usage(("unknown workload " + opts.workload).c_str());
    if (!makeDirs(opts.workDir))
        usage(("cannot create work dir " + opts.workDir).c_str());

    {
        eq::sim::Simulator probe; // default options: the shipped path
        std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
                    opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    opts.seconds, opts.trace ? 1 : 0);
        std::printf("# build=Release(NDEBUG) nproc=%u backend=%s "
                    "fusion=%s\n",
                    std::thread::hardware_concurrency(),
                    backendName(probe.backend()),
                    probe.fusionEnabled() ? "on" : "off");
    }

    Tracer tracer;
    tracer.setEnabled(opts.trace);
    const int perRound = w->inProcess() ? cpuCount() : kServeRound;
    const int reps = opts.trace ? 1 : kSetupRounds * perRound;
    std::vector<double> setupTimes;
    for (int r = 0; r < reps; ++r) {
        if (w->inProcess())
            rotateAffinity(r);
        auto t0 = Clock::now();
        try {
            w->setUp(tracer);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "eqledger: set-up failed: %s\n", e.what());
            w->finish();
            return 1;
        }
        setupTimes.push_back(secondsSince(t0));
        if (r + 1 < reps)
            w->finish(); // a repetition for timing only
    }
    rotateAffinity(-1);
    std::vector<double> roundMeans;
    for (size_t i = 0; i < setupTimes.size(); i += perRound) {
        size_t n = std::min(setupTimes.size() - i, size_t(perRound));
        double sum = 0;
        for (size_t j = 0; j < n; ++j)
            sum += setupTimes[i + j];
        roundMeans.push_back(sum / double(n));
    }
    const double setupS = median(roundMeans);
    std::printf("# set-up x%d: min %.4f s, max %.4f s; round means",
                reps,
                *std::min_element(setupTimes.begin(), setupTimes.end()),
                *std::max_element(setupTimes.begin(), setupTimes.end()));
    for (double m : roundMeans)
        std::printf(" %.4f", m);
    std::printf(" s\n");
    for (const auto &line : w->provenance())
        std::printf("# %s\n", line.c_str());

    OpLog all;
    OpLog checks;
    std::vector<Metric> metrics;
    if (!opts.trace) {
        Phase p = w->runOps(opts.seconds, tracer, 0);
        all = p.log;
        metrics = {
            {"setup_s", setupS, "s"},
            {"throughput_ops_per_s", p.throughput(), "1/s"},
            {"op_p50_ms", quantile(p.log.latencyMs, 0.5), "ms"},
            {"op_p90_ms", quantile(p.log.latencyMs, 0.9), "ms"},
            {"peak_rss_mb", w->peakRss(), "MB"},
        };
        std::printf("# ops=%llu wall=%.3fs op_p99_ms=%.4f (information "
                    "only; not a metric)\n",
                    static_cast<unsigned long long>(p.log.attempted),
                    p.wallSeconds, quantile(p.log.latencyMs, 0.99));
        checkKeyWeights(*w, p.log, checks);
    } else {
        // Same op loop twice: untraced, then traced. Their throughput
        // ratio is the tracing overhead.
        tracer.setEnabled(false);
        Phase plain = w->runOps(opts.seconds / 2, tracer, 1);
        tracer.setEnabled(true);
        Phase traced = w->runOps(opts.seconds / 2, tracer, 2);
        Layers layers;
        w->probe(tracer, layers, checks);
        tracer.setEnabled(false);
        all = plain.log;
        all.merge(traced.log);
        checkKeyWeights(*w, plain.log, checks);
        checkKeyWeights(*w, traced.log, checks);

        auto times = tracer.layerTimes();
        std::printf("# per-layer self time (%zu spans; ms)\n",
                    tracer.size());
        std::printf("# %-26s %9s %12s %12s %10s %7s\n", "span", "calls",
                    "total_ms", "self_ms", "self/call", "self%");
        double allSelf = 0;
        for (const auto &l : times)
            allSelf += l.selfMs;
        for (const auto &l : times)
            std::printf("# %-26s %9llu %12.3f %12.3f %10.4f %7.2f\n",
                        l.name.c_str(),
                        static_cast<unsigned long long>(l.calls),
                        l.totalMs, l.selfMs, l.selfMs / double(l.calls),
                        allSelf > 0 ? 100.0 * l.selfMs / allSelf : 0.0);
        std::printf("# (self%% base: %.3f ms of self time over all "
                    "spans)\n",
                    allSelf);
        for (const auto &m : kSpanMetrics) {
            double v = 0;
            for (const auto &l : times)
                if (l.name == m.second)
                    v = l.selfMs / double(l.calls);
            metrics.push_back({m.first, v, "ms"});
        }
        double overhead =
            plain.throughput() > 0
                ? 100.0 * (plain.throughput() - traced.throughput()) /
                      plain.throughput()
                : 0.0;
        layers["trace.overhead_pct"] = overhead;
        for (const auto &m : kDerivedMetrics) {
            auto it = layers.find(m.first);
            metrics.push_back(
                {m.first, it == layers.end() ? 0.0 : it->second,
                 m.second});
        }
        std::printf("# tracing overhead: %.2f%% (untraced %.2f ops/s "
                    "over %llu ops vs traced %.2f ops/s over %llu ops)\n",
                    overhead, plain.throughput(),
                    static_cast<unsigned long long>(plain.log.attempted),
                    traced.throughput(),
                    static_cast<unsigned long long>(traced.log.attempted));
        printKeyTable(*w, all);
        if (!traceOut.empty()) {
            if (tracer.writeChromeTrace(traceOut))
                std::printf("# trace written to %s (Trace Event "
                            "Format; opens in Perfetto)\n",
                            traceOut.c_str());
            else
                checks.check(false, "cannot write " + traceOut);
        }
    }
    w->finish();

    all.merge(checks);
    for (const auto &f : all.failures)
        std::fprintf(stderr, "eqledger: failed: %s\n", f.c_str());
    std::printf("# attempted=%llu failed=%llu (failed share %.6f)\n",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed),
                all.attempted ? double(all.failed) / all.attempted : 0.0);
    const bool correct = all.failed == 0 && all.attempted > 0;
    printResult(correct, std::max<uint64_t>(all.attempted, 1), all.failed,
                metrics);
    return correct ? 0 : 1;
}
