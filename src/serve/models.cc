#include "serve/models.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>

#include "base/fnv.hh"
#include "base/logging.hh"
#include "sim/session.hh"
#include "systolic/generator.hh"

namespace eq {
namespace serve {

namespace {

bool
fail(std::string *err, std::string message)
{
    *err = std::move(message);
    return false;
}

const char *const kModelNames[] = {"systolic", "soc", "pipeline"};

/** The config that @p key's kind selects, with its field table. */
struct Active {
    const fields::Table &table;
    void *cfg;
};

Active
active(const ModelKey &key)
{
    auto &k = const_cast<ModelKey &>(key);
    switch (key.kind) {
    case ModelKind::Soc: return {soc::SocConfig::fieldTable(), &k.soc};
    case ModelKind::Pipeline:
        return {soc::PipelineConfig::fieldTable(), &k.pipeline};
    case ModelKind::Systolic: break;
    }
    return {scalesim::Config::fieldTable(), &k.systolic};
}

} // namespace

// ---------------------------------------------------------------------------
// ModelKind / ModelKey

const char *
modelName(ModelKind kind)
{
    size_t i = size_t(kind);
    return i < std::size(kModelNames) ? kModelNames[i] : "?";
}

bool
modelFromName(const std::string &name, ModelKind *out)
{
    for (size_t i = 0; i < std::size(kModelNames); ++i) {
        if (name == kModelNames[i]) {
            *out = ModelKind(i);
            return true;
        }
    }
    return false;
}

ModelKey
ModelKey::systolicKey(const scalesim::Config &cfg)
{
    return {ModelKind::Systolic, cfg, {}, {}};
}

ModelKey
ModelKey::socKey(const soc::SocConfig &cfg)
{
    return {ModelKind::Soc, {}, cfg, {}};
}

ModelKey
ModelKey::pipelineKey(const soc::PipelineConfig &cfg)
{
    return {ModelKind::Pipeline, {}, {}, cfg};
}

uint64_t
ModelKey::hash() const
{
    Active a = active(*this);
    return fields::hash(a.table, a.cfg, fnv1a(kFnvOffset, uint64_t(kind)));
}

bool
ModelKey::operator==(const ModelKey &o) const
{
    Active a = active(*this);
    return kind == o.kind && fields::equal(a.table, a.cfg, active(o).cfg);
}

bool
ModelKey::validate(std::string *err) const
{
    Active a = active(*this);
    return fields::validate(a.table, a.cfg, err);
}

ir::OwningOpRef
ModelKey::build(ir::Context &ctx) const
{
    switch (kind) {
    case ModelKind::Systolic:
        return systolic::buildSystolicModule(ctx, systolic);
    case ModelKind::Soc: return soc::buildSocModule(ctx, soc);
    case ModelKind::Pipeline:
        return soc::buildPipelineModule(ctx, pipeline);
    }
    return ir::OwningOpRef();
}

ModelKey
defaultKey(ModelKind kind)
{
    return {kind, {}, {}, {}}; // each config's defaults are its family's
}

// ---------------------------------------------------------------------------
// Config <-> JSON, derived from the field tables

namespace {

Json
recordToJson(const fields::Table &t, const void *rec)
{
    Json out = Json::object();
    for (const fields::Field &f : t.fields) {
        int64_t v = f.get(rec);
        if (f.kind == fields::Kind::Int) {
            out.set(f.name, v);
        } else if (f.kind == fields::Kind::Enum) {
            out.set(f.name, v >= 0 && v <= f.hi ? f.spellings[v] : "?");
        } else {
            Json items = Json::array();
            for (int64_t i = 0; i < v; ++i)
                items.push(recordToJson(*f.elem, f.at(rec, size_t(i))));
            out.set(f.name, std::move(items));
        }
    }
    return out;
}

/** Override @p rec's fields present in @p obj. Every value is range
 *  checked before it is stored, so nothing narrows or wraps. */
bool
recordFromJson(const fields::Table &t, const Json &obj, void *rec,
               const std::string &path, std::string *err)
{
    for (const auto &m : obj.members()) {
        const fields::Field *f = fields::find(t, m.first);
        if (!f)
            return fail(err, "unknown " + std::string(t.what) +
                                 " config field '" + path + m.first + "'");
        const Json &v = m.second;
        auto bad = [&](const std::string &what) {
            return fail(err, fields::fieldError(t, path, f->name) + what);
        };
        int64_t i = 0;
        if (f->kind == fields::Kind::Int) {
            if (!v.isInt())
                return bad(" must be an integer");
            i = v.asInt();
        } else if (f->kind == fields::Kind::Enum) {
            while (v.isStr() && i <= f->hi && v.asStr() != f->spellings[i])
                ++i;
            if (!v.isStr() || i > f->hi)
                return bad(" must be " + fields::expected(*f) + " (got " +
                           v.dump() + ")");
        } else {
            if (!v.isArray())
                return bad(" must be an array");
            i = int64_t(v.items().size());
        }
        if (!fields::inRange(t, *f, i, path, err))
            return false;
        f->set(rec, i);
        for (int64_t k = 0; f->kind == fields::Kind::List && k < i; ++k) {
            const std::string at =
                path + f->name + "[" + std::to_string(k) + "]";
            const Json &item = v.items()[size_t(k)];
            if (!item.isObject())
                return fail(err, fields::fieldError(t, "", at.c_str()) +
                                     " must be an object");
            if (!recordFromJson(*f->elem, item, f->at(rec, size_t(k)),
                                at + ".", err))
                return false;
        }
    }
    return true;
}

} // namespace

Json
modelKeyToJson(const ModelKey &key)
{
    Active a = active(key);
    return recordToJson(a.table, a.cfg);
}

bool
modelKeyFromJson(ModelKind kind, const Json &config, ModelKey *out,
                 std::string *err)
{
    *out = defaultKey(kind);
    if (config.isNull())
        return true; // omitted config: the family default
    if (!config.isObject())
        return fail(err, "\"config\" must be an object");
    Active a = active(*out);
    return recordFromJson(a.table, config, a.cfg, "", err) &&
           out->validate(err);
}

// ---------------------------------------------------------------------------
// Sweep axes

bool
applyAxis(ModelKey *key, const std::string &axis, int64_t value,
          std::string *err)
{
    Active a = active(*key);
    return fields::applyAxis(a.table, a.cfg, axis, value, err);
}

// ---------------------------------------------------------------------------
// SweepSpec

bool
parseAxis(const std::string &text, SweepAxis *out)
{
    size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    out->name = text.substr(0, eq);
    out->values.clear();
    for (size_t pos = eq + 1; pos <= text.size();) {
        size_t end = std::min(text.find(',', pos), text.size());
        const std::string item = text.substr(pos, end - pos);
        char *endp = nullptr;
        errno = 0;
        long long v = std::strtoll(item.c_str(), &endp, 10);
        if (item.empty() || *endp != '\0' || errno == ERANGE)
            return false;
        out->values.push_back(v);
        pos = end + 1;
    }
    return true;
}

sweep::Grid
SweepSpec::grid() const
{
    sweep::Grid g;
    for (const auto &a : axes)
        g.axis(a.name, a.values);
    return g;
}

std::vector<sweep::Column>
SweepSpec::schema() const
{
    using sweep::ValueKind;
    // Per family: cycles, ops, then the family's traffic columns.
    static const std::vector<sweep::Column> kMetrics[] = {
        {{"cycles", ValueKind::Int, 12, 0},
         {"ops", ValueKind::Int, 12, 0},
         {"sram_rd_B", ValueKind::Int, 10, 0},
         {"sram_wr_B", ValueKind::Int, 10, 0}},
        {{"cycles", ValueKind::Int, 10, 0},
         {"ops", ValueKind::Int, 12, 0},
         {"bus_rd_B", ValueKind::Int, 10, 0},
         {"bus_wr_B", ValueKind::Int, 10, 0},
         {"bus_peak", ValueKind::Real, 9, 3}},
        {{"cycles", ValueKind::Int, 10, 0},
         {"ops", ValueKind::Int, 12, 0},
         {"conn_wr_B", ValueKind::Int, 10, 0}},
    };
    std::vector<sweep::Column> cols;
    for (const auto &a : axes)
        cols.push_back({a.name, ValueKind::Int, 6, 0});
    const auto &metrics = kMetrics[size_t(base.kind)];
    cols.insert(cols.end(), metrics.begin(), metrics.end());
    return cols;
}

ModelKey
SweepSpec::keyAt(const sweep::Point &point) const
{
    ModelKey key = base;
    std::string err;
    for (const auto &a : axes)
        eq_assert(applyAxis(&key, a.name, point.at(a.name), &err),
                  "SweepSpec::keyAt on an unvalidated spec: ", err);
    return key;
}

std::vector<sweep::Cell>
SweepSpec::row(const sweep::Point &point,
               const sim::SimReport &report) const
{
    std::vector<sweep::Cell> cells;
    for (const auto &a : axes)
        cells.push_back(point.at(a.name));
    cells.push_back(static_cast<int64_t>(report.cycles));
    cells.push_back(static_cast<int64_t>(report.opsExecuted));
    switch (base.kind) {
    case ModelKind::Systolic: {
        int64_t rd = 0, wr = 0;
        for (const auto &m : report.memories) {
            if (m.kind == "SRAM") {
                rd += m.bytesRead;
                wr += m.bytesWritten;
            }
        }
        cells.push_back(rd);
        cells.push_back(wr);
        break;
    }
    case ModelKind::Soc: {
        int64_t rd = 0, wr = 0;
        double peak = 0.0;
        if (!report.connections.empty()) {
            // The bus is the first connection the generator creates.
            const auto &bus = report.connections.front();
            rd = bus.readBytes;
            wr = bus.writeBytes;
            peak = bus.maxBwPortionRead + bus.maxBwPortionWrite;
        }
        cells.push_back(rd);
        cells.push_back(wr);
        cells.push_back(peak);
        break;
    }
    case ModelKind::Pipeline: {
        int64_t wr = 0;
        for (const auto &conn : report.connections)
            wr += conn.writeBytes;
        cells.push_back(wr);
        break;
    }
    }
    return cells;
}

bool
SweepSpec::validate(std::string *err) const
{
    if (axes.empty())
        return fail(err, "sweep needs at least one axis");
    uint64_t points = 1;
    for (size_t i = 0; i < axes.size(); ++i) {
        const SweepAxis &a = axes[i];
        for (size_t j = 0; j < i; ++j)
            if (axes[j].name == a.name)
                return fail(err, "axis '" + a.name + "' is declared twice");
        if (a.values.empty())
            return fail(err, "axis '" + a.name + "' has no values");
        if (a.values.size() > kMaxPoints / points)
            return fail(err, "sweep grid exceeds " +
                                 std::to_string(kMaxPoints) + " points");
        points *= a.values.size();
        for (int64_t v : a.values) {
            ModelKey probe = base;
            if (!applyAxis(&probe, a.name, v, err))
                return false;
        }
    }
    // Every axis value is in range on its own; combinations must still
    // satisfy the cross-field rules (e.g. fh <= h).
    sweep::Grid g = grid();
    for (const sweep::Point &p : g.points()) {
        std::string why;
        if (!keyAt(p).validate(&why))
            return fail(err, "sweep point " + std::to_string(p.index()) +
                                 ": " + why);
    }
    return true;
}

std::string
SweepSpec::pointKey(const sweep::Point &point) const
{
    return std::string(modelName(base.kind)) + " " +
           modelKeyToJson(keyAt(point)).dump();
}

std::string
SweepSpec::saltString() const
{
    return std::string(modelName(base.kind)) + " " +
           modelKeyToJson(base).dump();
}

Json
SweepSpec::toJson() const
{
    Json out = Json::object();
    out.set("op", "sweep");
    out.set("model", modelName(base.kind));
    out.set("config", modelKeyToJson(base));
    Json jaxes = Json::array();
    for (const auto &a : axes) {
        Json ja = Json::object();
        ja.set("name", a.name);
        Json vals = Json::array();
        for (int64_t v : a.values)
            vals.push(v);
        ja.set("values", std::move(vals));
        jaxes.push(std::move(ja));
    }
    out.set("axes", std::move(jaxes));
    return out;
}

bool
SweepSpec::fromJson(const Json &request, SweepSpec *out,
                    std::string *err)
{
    ModelKind kind;
    if (!modelFromName(request.getStr("model", ""), &kind))
        return fail(err, "unknown or missing \"model\"");
    const Json *config = request.find("config");
    if (!modelKeyFromJson(kind, config ? *config : Json(), &out->base,
                          err))
        return false;
    out->axes.clear();
    const Json *jaxes = request.find("axes");
    if (!jaxes || !jaxes->isArray())
        return fail(err, "sweep request needs an \"axes\" array");
    for (const Json &ja : jaxes->items()) {
        if (!ja.isObject())
            return fail(err, "axis entries must be objects");
        SweepAxis axis;
        axis.name = ja.getStr("name", "");
        if (axis.name.empty())
            return fail(err, "axis entry missing \"name\"");
        const Json *vals = ja.find("values");
        if (!vals || !vals->isArray())
            return fail(err, "axis '" + axis.name + "' missing \"values\"");
        for (const Json &v : vals->items()) {
            if (!v.isInt())
                return fail(err, "axis '" + axis.name +
                                     "' values must be integers");
            axis.values.push_back(v.asInt());
        }
        out->axes.push_back(std::move(axis));
    }
    return out->validate(err);
}

// ---------------------------------------------------------------------------
// In-process reference sweep

sweep::Table
runLocalSweep(const SweepSpec &spec, unsigned threads,
              sim::EngineOptions engine)
{
    // Without a journal or cache path there is nothing to fail on.
    sweep::Grid g = spec.grid();
    sweep::Table table{spec.schema()};
    std::string err;
    sweep::JournalStatus status = runLocalSweepDurable(
        spec, g.points(), threads, engine, {}, &table, nullptr, &err);
    eq_assert(status == sweep::JournalStatus::Ok, err);
    return table;
}

sweep::JournalStatus
runLocalSweepDurable(const SweepSpec &spec,
                     const std::vector<sweep::Point> &points,
                     unsigned threads, sim::EngineOptions engine,
                     const sweep::JournalOptions &opts,
                     sweep::Table *out, sweep::ResumeStats *stats,
                     std::string *err,
                     const std::function<void(const sweep::Point &)>
                         &on_point)
{
    sweep::SweepRunner runner(sweep::RunnerOptions{threads});

    // One Session per worker, rebuilt only when the point's structural
    // key changes — the same build-cache-run path the daemon's
    // ProgramCache entries use. Worker w only ever runs on one thread,
    // so no locking.
    struct Worker {
        explicit Worker(sim::EngineOptions opts) : session(opts) {}
        sim::Session session;
        std::optional<ModelKey> key;
    };
    std::vector<std::unique_ptr<Worker>> workers;
    for (unsigned i = 0; i < runner.threadsFor(points.size()); ++i)
        workers.push_back(std::make_unique<Worker>(engine));

    return sweep::runJournaledSweep(
        runner, points, spec.schema(),
        [&](const sweep::Point &p) { return spec.pointKey(p); },
        [&](const sweep::Point &p, unsigned w) {
            Worker &worker = *workers[w];
            ModelKey key = spec.keyAt(p);
            if (!worker.key || *worker.key != key) {
                worker.session.rebuild(
                    [&](ir::Context &ctx) { return key.build(ctx); });
                worker.key = key;
            }
            std::vector<sweep::Cell> cells =
                spec.row(p, worker.session.run());
            if (on_point)
                on_point(p);
            return cells;
        },
        opts, engine, out, stats, err);
}

} // namespace serve
} // namespace eq
