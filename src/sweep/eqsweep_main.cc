/**
 * @file
 * eqsweep: the crash-safe sweep driver.
 *
 * Four modes over one serializable SweepSpec:
 *   (default)      run the whole grid, optionally journaled
 *                  (--journal/--resume) and cached (--cache)
 *   --emit-shards  write spec.json + per-shard manifests into a dir
 *   --shard M      run one manifest's dense range [begin, end) as its
 *                  own process: always resumable, heartbeating after
 *                  every computed point
 *   --merge DIR    merge the dir's shard journals into one table,
 *                  byte-identical to a single-process run
 *
 * Failures speak the journal's structured vocabulary on stderr —
 *   eqsweep: error: {"code":"journal_header_mismatch","message":...}
 * — and the exit code mirrors it: 0 ok, 1 I/O, 2 usage or bad_request
 * (a spec, config or axis that fails validation; the message names the
 * field), 3 header mismatch, 4 corrupt journal, 5 incomplete merge.
 * Dispatch scripts branch on these, never on prose.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "base/fsutil.hh"
#include "serve/models.hh"
#include "sweep/shard.hh"

using namespace eq;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitIo = 1;
constexpr int kExitUsage = 2;
constexpr int kExitHeaderMismatch = 3;
constexpr int kExitCorrupt = 4;
constexpr int kExitIncomplete = 5;

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "spec (pick one):\n"
        "  --spec FILE          sweep spec JSON ({model, config, axes})\n"
        "  --model NAME         systolic|soc|pipeline, with\n"
        "    --config JSON        base-config overrides (optional)\n"
        "    --axis NAME=V1,V2    sweep axis (repeatable, in order)\n"
        "execution:\n"
        "  --threads N          worker threads (default "
        "$EQ_SWEEP_THREADS)\n"
        "  --backend MODE       auto|interp|compiled (default auto)\n"
        "  --fuse MODE          auto|on|off (default auto)\n"
        "durability:\n"
        "  --journal PATH       journal completed points to PATH\n"
        "  --resume             replay an existing journal first\n"
        "  --cache PATH         content-keyed result cache file\n"
        "  --fsync              fsync the journal after every record\n"
        "sharding:\n"
        "  --emit-shards N      write N shard manifests (needs a spec\n"
        "                       and --shard-dir), then exit\n"
        "  --shard-dir DIR      manifest/journal/heartbeat directory\n"
        "  --shard MANIFEST     run one shard manifest's point range\n"
        "  --merge DIR          merge DIR's shard journals to a table\n"
        "output:\n"
        "  --csv PATH           write the table as CSV to PATH\n"
        "                       (atomic; default: stdout)\n",
        argv0);
}

void
structuredError(const std::string &code, const std::string &message)
{
    serve::Json e = serve::Json::object();
    e.set("code", code);
    e.set("message", message);
    std::fprintf(stderr, "eqsweep: error: %s\n", e.dump().c_str());
}

int
exitCodeFor(sweep::JournalStatus status)
{
    switch (status) {
    case sweep::JournalStatus::Ok: return kExitOk;
    case sweep::JournalStatus::IoError: return kExitIo;
    case sweep::JournalStatus::HeaderMismatch: return kExitHeaderMismatch;
    case sweep::JournalStatus::Corrupt: return kExitCorrupt;
    }
    return kExitIo;
}

int
refuse(sweep::JournalStatus status, const std::string &message)
{
    structuredError(sweep::journalStatusName(status), message);
    return exitCodeFor(status);
}

int
emitTable(const sweep::Table &table, const std::string &csv_path)
{
    if (csv_path.empty()) {
        std::fputs(table.csv().c_str(), stdout);
        return kExitOk;
    }
    std::string err;
    if (!fs::writeFileAtomic(csv_path, table.csv(), &err)) {
        structuredError("io_error", err);
        return kExitIo;
    }
    return kExitOk;
}

void
printResumeStats(const sweep::ResumeStats &st)
{
    std::fprintf(stderr,
                 "# resume: computed=%zu journal=%zu cache=%zu "
                 "truncated_bytes=%llu\n",
                 st.computed, st.fromJournal, st.fromCache,
                 static_cast<unsigned long long>(
                     st.journalTruncatedBytes));
}

struct Args {
    std::string specPath;
    std::string model;
    std::string configJson;
    std::vector<std::string> axisSpecs;
    unsigned threads = 0;
    sim::EngineOptions engine;
    sweep::JournalOptions durability;
    int emitShards = 0;
    std::string shardDir;
    std::string shardManifest;
    std::string mergeDir;
    std::string csvPath;
};

/** Build the spec from --spec or --model/--config/--axis. On failure,
 *  print the structured error and return the exit code: an unreadable
 *  spec file is I/O, anything wrong with its content a bad request. */
int
buildSpec(const Args &args, serve::SweepSpec *spec)
{
    serve::Json request;
    std::string err;
    auto badRequest = [&](const std::string &message) {
        structuredError("bad_request", message);
        return kExitUsage;
    };
    if (!args.specPath.empty()) {
        std::string text;
        if (!fs::readFile(args.specPath, &text, &err)) {
            structuredError("io_error", err);
            return kExitIo;
        }
        if (!serve::Json::parse(text, &request, &err))
            return badRequest(args.specPath + ": " + err);
    } else {
        request = serve::Json::object();
        request.set("model", args.model);
        if (!args.configJson.empty()) {
            serve::Json config;
            if (!serve::Json::parse(args.configJson, &config, &err))
                return badRequest("--config: " + err);
            request.set("config", std::move(config));
        }
        serve::Json axes = serve::Json::array();
        for (const std::string &text : args.axisSpecs) {
            serve::SweepAxis axis;
            if (!serve::parseAxis(text, &axis))
                return badRequest("bad --axis '" + text +
                                  "' (want name=v1,v2,...)");
            serve::Json ja = serve::Json::object();
            ja.set("name", axis.name);
            serve::Json vals = serve::Json::array();
            for (int64_t v : axis.values)
                vals.push(v);
            ja.set("values", std::move(vals));
            axes.push(std::move(ja));
        }
        request.set("axes", std::move(axes));
    }
    if (!serve::SweepSpec::fromJson(request, spec, &err))
        return badRequest(err);
    return kExitOk;
}

/** The full-grid identity this spec + engine mode journals under. */
sweep::JournalHeader
headerFor(const serve::SweepSpec &spec,
          const std::vector<sweep::Point> &points,
          const sim::EngineOptions &engine)
{
    sweep::JournalHeader h;
    h.gridHash = sweep::hashPoints(points);
    h.numPoints = points.size();
    h.schemaSig = sweep::schemaSignature(spec.schema());
    h.salt = spec.saltString();
    sweep::resolveEngineMode(engine, &h.backend, &h.fuse);
    return h;
}

int
runWhole(const Args &args, const serve::SweepSpec &spec)
{
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();
    sweep::JournalOptions opts = args.durability;
    opts.salt = spec.saltString();
    sweep::Table table{spec.schema()};
    sweep::ResumeStats stats;
    std::string err;
    sweep::JournalStatus status = serve::runLocalSweepDurable(
        spec, points, args.threads, args.engine, opts, &table, &stats,
        &err);
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    printResumeStats(stats);
    return emitTable(table, args.csvPath);
}

int
emitShardsMode(const Args &args, const serve::SweepSpec &spec)
{
    if (args.shardDir.empty()) {
        structuredError("usage", "--emit-shards needs --shard-dir");
        return kExitUsage;
    }
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();
    sweep::JournalHeader header = headerFor(spec, points, args.engine);

    const std::string specPath = args.shardDir + "/spec.json";
    std::string err;
    if (!fs::writeFileAtomic(specPath, spec.toJson().dump() + "\n",
                             &err)) {
        structuredError("io_error", err);
        return kExitIo;
    }
    std::vector<sweep::ShardManifest> manifests =
        sweep::makeShardManifests(points.size(), args.emitShards,
                                  header, args.shardDir);
    for (const auto &m : manifests) {
        sweep::ShardManifest manifest = m;
        manifest.specPath = specPath;
        const std::string path = args.shardDir + "/shard-" +
                                 std::to_string(manifest.shard) +
                                 ".manifest.json";
        if (!manifest.save(path, &err)) {
            structuredError("io_error", err);
            return kExitIo;
        }
        std::printf("%s\n", path.c_str());
    }
    return kExitOk;
}

int
shardMode(const Args &args)
{
    sweep::ShardManifest manifest;
    std::string err;
    if (!sweep::ShardManifest::load(args.shardManifest, &manifest,
                                    &err)) {
        structuredError("io_error", err);
        return kExitIo;
    }

    // The manifest pins the engine mode; this process obeys it rather
    // than its own environment, so every shard of a dispatch — and
    // every relaunch of a shard — simulates identically.
    sim::EngineOptions engine = args.engine;
    engine.backend = manifest.header.backend == "compiled"
                         ? sim::Backend::Compiled
                         : sim::Backend::Interp;
    engine.fuse = manifest.header.fuse == "on" ? sim::Fusion::On
                                               : sim::Fusion::Off;

    Args specArgs = args;
    specArgs.specPath = manifest.specPath;
    serve::SweepSpec spec;
    if (int rc = buildSpec(specArgs, &spec))
        return rc;
    sweep::Grid grid = spec.grid();
    std::vector<sweep::Point> points = grid.points();

    // A swapped spec.json must not silently journal under the old
    // manifest's identity.
    sweep::JournalHeader expect = headerFor(spec, points, engine);
    std::string why;
    if (!manifest.header.matches(expect, &why))
        return refuse(sweep::JournalStatus::HeaderMismatch,
                      "manifest does not describe this spec: " + why);
    if (manifest.endPoint > points.size())
        return refuse(sweep::JournalStatus::HeaderMismatch,
                      "shard range exceeds the grid");

    std::vector<sweep::Point> slice(
        points.begin() + ptrdiff_t(manifest.beginPoint),
        points.begin() + ptrdiff_t(manifest.endPoint));

    sweep::JournalOptions opts = args.durability;
    opts.journalPath = manifest.journalPath;
    opts.resume = true; // relaunch after a kill is the normal case
    opts.salt = expect.salt;
    opts.gridHash = expect.gridHash;
    opts.numPoints = expect.numPoints;

    sweep::Heartbeat heartbeat(manifest.heartbeatPath, manifest.shard);
    std::mutex beatMu;
    size_t completed = 0;
    heartbeat.beat(0);

    sweep::Table table{spec.schema()};
    sweep::ResumeStats stats;
    sweep::JournalStatus status = serve::runLocalSweepDurable(
        spec, slice, args.threads, engine, opts, &table, &stats, &err,
        [&](const sweep::Point &) {
            std::lock_guard<std::mutex> lock(beatMu);
            heartbeat.beat(++completed);
        });
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    heartbeat.beat(slice.size());
    printResumeStats(stats);
    std::fprintf(stderr, "# shard %d: points [%llu, %llu) done\n",
                 manifest.shard,
                 static_cast<unsigned long long>(manifest.beginPoint),
                 static_cast<unsigned long long>(manifest.endPoint));
    return kExitOk;
}

int
mergeMode(const Args &args)
{
    // shard-0's manifest names the dispatch width; every manifest
    // repeats the full-grid header, which the merge verifies per
    // journal.
    sweep::ShardManifest first;
    std::string err;
    if (!sweep::ShardManifest::load(
            args.mergeDir + "/shard-0.manifest.json", &first, &err)) {
        structuredError("io_error", err);
        return kExitIo;
    }
    std::vector<std::string> journals;
    for (int k = 0; k < first.numShards; ++k) {
        sweep::ShardManifest m;
        const std::string path = args.mergeDir + "/shard-" +
                                 std::to_string(k) + ".manifest.json";
        if (!sweep::ShardManifest::load(path, &m, &err)) {
            structuredError("io_error", err);
            return kExitIo;
        }
        std::string why;
        if (!m.header.matches(first.header, &why))
            return refuse(sweep::JournalStatus::HeaderMismatch,
                          path + ": " + why);
        if (fs::fileExists(m.journalPath))
            journals.push_back(m.journalPath);
    }

    Args specArgs = args;
    specArgs.specPath = first.specPath;
    serve::SweepSpec spec;
    if (int rc = buildSpec(specArgs, &spec))
        return rc;

    sweep::Table table{spec.schema()};
    std::vector<uint64_t> missing;
    sweep::JournalStatus status = sweep::mergeShardJournals(
        journals, first.header, spec.schema(), &table, &missing, &err);
    if (status != sweep::JournalStatus::Ok)
        return refuse(status, err);
    if (!missing.empty()) {
        structuredError(
            "incomplete_merge",
            std::to_string(missing.size()) + " of " +
                std::to_string(first.header.numPoints) +
                " points missing (first: " +
                std::to_string(missing.front()) + ")");
        return kExitIncomplete;
    }
    return emitTable(table, args.csvPath);
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
                std::fprintf(stderr, "eqsweep: %s needs a value\n",
                             arg.c_str());
                std::exit(kExitUsage);
            }
            return argv[++i];
        };
        if (arg == "--spec") {
            args.specPath = value();
        } else if (arg == "--model") {
            args.model = value();
        } else if (arg == "--config") {
            args.configJson = value();
        } else if (arg == "--axis") {
            args.axisSpecs.push_back(value());
        } else if (arg == "--threads") {
            args.threads = unsigned(std::atoi(value()));
        } else if (arg == "--backend") {
            const std::string mode = value();
            if (mode == "auto")
                args.engine.backend = sim::Backend::Auto;
            else if (mode == "interp")
                args.engine.backend = sim::Backend::Interp;
            else if (mode == "compiled")
                args.engine.backend = sim::Backend::Compiled;
            else {
                std::fprintf(stderr, "eqsweep: bad --backend '%s'\n",
                             mode.c_str());
                return kExitUsage;
            }
        } else if (arg == "--fuse") {
            const std::string mode = value();
            if (mode == "auto")
                args.engine.fuse = sim::Fusion::Auto;
            else if (mode == "on")
                args.engine.fuse = sim::Fusion::On;
            else if (mode == "off")
                args.engine.fuse = sim::Fusion::Off;
            else {
                std::fprintf(stderr, "eqsweep: bad --fuse '%s'\n",
                             mode.c_str());
                return kExitUsage;
            }
        } else if (arg == "--journal") {
            args.durability.journalPath = value();
        } else if (arg == "--resume") {
            args.durability.resume = true;
        } else if (arg == "--cache") {
            args.durability.cachePath = value();
        } else if (arg == "--fsync") {
            args.durability.fsyncEachRecord = true;
        } else if (arg == "--emit-shards") {
            args.emitShards = std::atoi(value());
            if (args.emitShards < 1) {
                std::fprintf(stderr, "eqsweep: bad --emit-shards\n");
                return kExitUsage;
            }
        } else if (arg == "--shard-dir") {
            args.shardDir = value();
        } else if (arg == "--shard") {
            args.shardManifest = value();
        } else if (arg == "--merge") {
            args.mergeDir = value();
        } else if (arg == "--csv") {
            args.csvPath = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return kExitOk;
        } else {
            std::fprintf(stderr, "eqsweep: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return kExitUsage;
        }
    }

    if (!args.shardManifest.empty())
        return shardMode(args);
    if (!args.mergeDir.empty())
        return mergeMode(args);

    if (args.specPath.empty() && args.model.empty()) {
        usage(argv[0]);
        return kExitUsage;
    }
    serve::SweepSpec spec;
    if (int rc = buildSpec(args, &spec))
        return rc;
    if (args.emitShards > 0)
        return emitShardsMode(args, spec);
    return runWhole(args, spec);
}
