/**
 * @file
 * serve_client: client for the eqserved simulation service, and a
 * self-contained demo of it.
 *
 * With no arguments it starts an in-process Server on an ephemeral
 * port, runs a cold+warm simulate, then checks that a served sweep
 * re-merged by point index is byte-identical to the in-process
 * SweepRunner table — exiting nonzero on any mismatch, which is what
 * makes the repo-wide example smoke test meaningful for the serving
 * layer.
 *
 * Against a real daemon:
 *   serve_client --connect 127.0.0.1:7070 --model systolic \
 *       --axis ah=2,4,8 --axis aw=2,4,8 --csv sweep.csv
 *   serve_client --connect 127.0.0.1:7070 --simulate
 *   serve_client --connect 127.0.0.1:7070 --stats
 *   serve_client --connect 127.0.0.1:7070 --shutdown
 * `--local` runs the same spec in-process instead (the reference the
 * served table must match byte-for-byte). `--retries N` turns on the
 * client's bounded retry/backoff (used by the chaos harness to prove
 * a sweep recovers byte-identically through injected faults), and
 * `--deadline MS` attaches a deadline_ms to each request.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/models.hh"
#include "serve/server.hh"

using namespace eq;

namespace {

struct Args {
    std::string connect; ///< host:port; empty = no daemon
    bool local = false;
    bool simulate = false;
    bool stats = false;
    bool shutdown = false;
    std::string model = "systolic";
    std::vector<serve::SweepAxis> axes;
    std::string csvPath;      ///< empty = stdout
    int retries = 1;          ///< RetryPolicy.maxAttempts
    long deadlineMs = -1;     ///< per-request deadline_ms; -1 = none
};

bool
parseHostPort(const std::string &text, std::string *host, uint16_t *port)
{
    auto colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0)
        return false;
    *host = text.substr(0, colon);
    char *end = nullptr;
    long p = std::strtol(text.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || p < 1 || p > 65535)
        return false;
    *port = static_cast<uint16_t>(p);
    return true;
}

void
emitCsv(const sweep::Table &table, const std::string &path)
{
    if (path.empty()) {
        std::fputs(table.csv().c_str(), stdout);
        return;
    }
    std::ofstream os(path, std::ios::binary);
    os << table.csv();
}

serve::SweepSpec
demoSpec()
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(serve::ModelKind::Systolic);
    spec.axes.push_back({"ah", {2, 4}});
    spec.axes.push_back({"aw", {2, 4}});
    return spec;
}

/** The no-argument path: everything in one process, exit 0 only if the
 *  served table is byte-identical to the local one. */
int
runDemo()
{
    serve::ServerOptions sopts;
    sopts.workers = 2;
    serve::Server server(sopts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return 1;
    }
    std::printf("demo server on 127.0.0.1:%u\n", unsigned(server.port()));

    serve::Client client;
    if (!client.connect("127.0.0.1", server.port(), &err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return 1;
    }

    serve::ModelKey key =
        serve::defaultKey(serve::ModelKind::Systolic);
    auto cold = client.simulate(key);
    auto warm = client.simulate(key);
    if (!cold.ok || !warm.ok) {
        std::fprintf(stderr, "serve_client: simulate failed: %s\n",
                     (cold.ok ? warm.error : cold.error).c_str());
        return 1;
    }
    std::printf("simulate: cycles=%lld cached cold=%d warm=%d\n",
                static_cast<long long>(
                    cold.report.getInt("cycles", -1)),
                int(cold.cached), int(warm.cached));
    if (cold.cached || !warm.cached) {
        std::fprintf(stderr,
                     "serve_client: cache warmth bits wrong\n");
        return 1;
    }

    serve::SweepSpec spec = demoSpec();
    sweep::Table served(spec.schema());
    if (!client.sweepTable(spec, &served, &err)) {
        std::fprintf(stderr, "serve_client: sweep failed: %s\n",
                     err.c_str());
        return 1;
    }
    sweep::Table local = serve::runLocalSweep(spec);
    if (served.csv() != local.csv()) {
        std::fprintf(stderr,
                     "serve_client: served sweep differs from "
                     "in-process sweep!\n--- served ---\n%s--- local "
                     "---\n%s",
                     served.csv().c_str(), local.csv().c_str());
        return 1;
    }
    std::printf("sweep: %zu rows, served == local (byte-identical)\n",
                served.numRows());

    if (!client.shutdownServer(&err)) {
        std::fprintf(stderr, "serve_client: shutdown failed: %s\n",
                     err.c_str());
        return 1;
    }
    server.wait();
    std::printf("demo ok\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "serve_client: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--connect") {
            args.connect = value();
        } else if (arg == "--local") {
            args.local = true;
        } else if (arg == "--simulate") {
            args.simulate = true;
        } else if (arg == "--stats") {
            args.stats = true;
        } else if (arg == "--shutdown") {
            args.shutdown = true;
        } else if (arg == "--model") {
            args.model = value();
        } else if (arg == "--axis") {
            serve::SweepAxis axis;
            if (!serve::parseAxis(value(), &axis)) {
                std::fprintf(stderr,
                             "serve_client: bad --axis (want "
                             "name=v1,v2,...)\n");
                return 2;
            }
            args.axes.push_back(std::move(axis));
        } else if (arg == "--csv") {
            args.csvPath = value();
        } else if (arg == "--retries") {
            char *end = nullptr;
            long n = std::strtol(value(), &end, 10);
            if (end == argv[i] || *end != '\0' || n < 1) {
                std::fprintf(stderr, "serve_client: bad --retries\n");
                return 2;
            }
            args.retries = static_cast<int>(n);
        } else if (arg == "--deadline") {
            char *end = nullptr;
            long n = std::strtol(value(), &end, 10);
            if (end == argv[i] || *end != '\0' || n < 0) {
                std::fprintf(stderr, "serve_client: bad --deadline\n");
                return 2;
            }
            args.deadlineMs = n;
        } else {
            std::fprintf(stderr, "serve_client: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    if (args.connect.empty() && !args.local)
        return runDemo();

    serve::ModelKind kind;
    if (!serve::modelFromName(args.model, &kind)) {
        std::fprintf(stderr, "serve_client: unknown model '%s'\n",
                     args.model.c_str());
        return 2;
    }
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(kind);
    spec.axes = args.axes;
    std::string err;
    if (!spec.axes.empty() && !spec.validate(&err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return 2;
    }

    if (args.local) {
        if (spec.axes.empty()) {
            std::fprintf(stderr,
                         "serve_client: --local needs --axis\n");
            return 2;
        }
        emitCsv(serve::runLocalSweep(spec), args.csvPath);
        return 0;
    }

    std::string host;
    uint16_t port = 0;
    if (!parseHostPort(args.connect, &host, &port)) {
        std::fprintf(stderr,
                     "serve_client: bad --connect (want host:port)\n");
        return 2;
    }
    serve::Client client;
    if (args.retries > 1) {
        serve::RetryPolicy policy;
        policy.maxAttempts = args.retries;
        client.setRetryPolicy(policy);
    }
    if (!client.connect(host, port, &err)) {
        std::fprintf(stderr, "serve_client: %s\n", err.c_str());
        return 1;
    }

    if (args.simulate) {
        auto result = client.simulate(spec.base, args.deadlineMs);
        if (!result.ok) {
            std::fprintf(stderr, "serve_client: %s\n",
                         result.error.c_str());
            return 1;
        }
        std::printf("%s\n", result.report.dump().c_str());
    }
    if (!args.axes.empty()) {
        sweep::Table table(spec.schema());
        if (!client.sweepTable(spec, &table, &err, args.deadlineMs)) {
            std::fprintf(stderr, "serve_client: %s\n", err.c_str());
            return 1;
        }
        emitCsv(table, args.csvPath);
    }
    if (args.stats) {
        serve::Json stats;
        if (!client.stats(&stats, &err)) {
            std::fprintf(stderr, "serve_client: %s\n", err.c_str());
            return 1;
        }
        std::printf("%s\n", stats.dump().c_str());
    }
    if (args.shutdown) {
        if (!client.shutdownServer(&err)) {
            std::fprintf(stderr, "serve_client: %s\n", err.c_str());
            return 1;
        }
    }
    return 0;
}
