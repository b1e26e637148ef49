/**
 * @file
 * The serving layer's model registry: every scenario family the daemon
 * can simulate, behind one value-typed key.
 *
 * A ModelKey names a scenario family (systolic / soc / pipeline) plus
 * the family's full structural config. Keys are value-comparable
 * (operator== compares the active config field-for-field) and FNV-1a
 * hashable — the ProgramCache keys on hash() but always verifies full
 * equality before reusing an entry, so hash collisions cost a rebuild,
 * never a wrong result.
 *
 * A SweepSpec is the serializable subset of a sweep::Grid — a base
 * ModelKey plus named integer axes applied on top of it per point.
 * The spec is shared verbatim by both execution paths: the daemon's
 * scheduler (rows streamed in completion order, tagged with the dense
 * point index) and runLocalSweep (an in-process SweepRunner). Both
 * produce rows through the same schema()/row() functions, which is
 * what makes a served sweep byte-identical to the in-process table
 * after the client re-merges rows by point index.
 */

#ifndef EQ_SERVE_MODELS_HH
#define EQ_SERVE_MODELS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/context.hh"
#include "ir/operation.hh"
#include "scalesim/scalesim.hh"
#include "serve/protocol.hh"
#include "sim/engine.hh"
#include "soc/soc.hh"
#include "sweep/grid.hh"
#include "sweep/journal.hh"
#include "sweep/runner.hh"
#include "sweep/table.hh"

namespace eq {
namespace serve {

enum class ModelKind : uint8_t { Systolic, Soc, Pipeline };

const char *modelName(ModelKind kind);
/** Returns false for unknown names ("systolic"/"soc"/"pipeline"). */
bool modelFromName(const std::string &name, ModelKind *out);

/** One scenario family + its full structural config. */
struct ModelKey {
    ModelKind kind = ModelKind::Systolic;
    // Only the config matching `kind` is meaningful; the others stay
    // default-constructed so plain memberwise comparison of the active
    // one is well-defined.
    scalesim::Config systolic;
    soc::SocConfig soc;
    soc::PipelineConfig pipeline;

    static ModelKey systolicKey(const scalesim::Config &cfg);
    static ModelKey socKey(const soc::SocConfig &cfg);
    static ModelKey pipelineKey(const soc::PipelineConfig &cfg);

    /** FNV-1a over kind + the active config's fields. */
    uint64_t hash() const;

    /** Full structural equality (kind + the active config's fields). */
    bool operator==(const ModelKey &o) const;
    bool operator!=(const ModelKey &o) const { return !(*this == o); }

    /** Every field of the active config in range (then the key builds
     *  and simulates); else false with an error naming the field. */
    bool validate(std::string *err) const;

    /** Build the family's module for this config. */
    ir::OwningOpRef build(ir::Context &ctx) const;
};

/** The family's default config (what a request's omitted "config"
 *  fields fall back to). */
ModelKey defaultKey(ModelKind kind);

/** Config <-> JSON, derived from the family's field table. fromJson
 *  starts from defaultKey(kind), overrides the fields present in
 *  @p config and validates the result (unknown fields are an error, so
 *  typos never silently simulate the default). */
Json modelKeyToJson(const ModelKey &key);
bool modelKeyFromJson(ModelKind kind, const Json &config, ModelKey *out,
                      std::string *err);

/**
 * Apply one named sweep-axis value onto a key (e.g. "ah"=8, "tiles"=4).
 * A family's axes are the integer and enum (by index: df 0/1/2) fields
 * of its field table plus the composite axes beside it — see
 * scalesim::Config, soc::SocConfig and soc::PipelineConfig ::fieldTable().
 */
bool applyAxis(ModelKey *key, const std::string &axis, int64_t value,
               std::string *err);

/** One named integer axis of a sweep request. */
struct SweepAxis {
    std::string name;
    std::vector<int64_t> values;
};

/** Parse "name=v1,v2,..." (the --axis syntax of the command lines). */
bool parseAxis(const std::string &text, SweepAxis *out);

/** A serializable sweep: base config + axes (declaration order is the
 *  grid's axis order, so dense point indices match the nested loops). */
struct SweepSpec {
    static constexpr uint64_t kMaxPoints = 65536; ///< grid size bound

    ModelKey base;
    std::vector<SweepAxis> axes;

    /** The equivalent declarative grid (unfiltered). */
    sweep::Grid grid() const;

    /** Axis columns (request order) + the family's metric columns.
     *  Metric columns are simulation-deterministic only — no wall
     *  clock — so tables byte-compare across hosts and worker
     *  counts. */
    std::vector<sweep::Column> schema() const;

    /** The structural key simulated at @p point: base + axis
     *  overrides. Panics on an axis applyAxis rejects — validate()
     *  specs before points are expanded. */
    ModelKey keyAt(const sweep::Point &point) const;

    /** One result row for @p point (axis cells + metrics derived from
     *  @p report). */
    std::vector<sweep::Cell> row(const sweep::Point &point,
                                 const sim::SimReport &report) const;

    /** Check the axes (distinct, non-empty, kMaxPoints at most, values
     *  in range), then every point's key (naming point and field). */
    bool validate(std::string *err) const;

    /** Content key of @p point for the result cache: the model name
     *  plus the *full resolved config* simulated there (base + axis
     *  overrides), not the point's grid coordinates — so a config
     *  keeps hitting the cache after the grid around it changes. */
    std::string pointKey(const sweep::Point &point) const;

    /** The sweep identity beyond the grid (model name + base config) —
     *  what JournalOptions::salt carries into the journal header so a
     *  journal from a different model/base refuses to resume even when
     *  the grids coincide. */
    std::string saltString() const;

    Json toJson() const;
    static bool fromJson(const Json &request, SweepSpec *out,
                         std::string *err);
};

/**
 * Run @p spec in-process through the SweepRunner (one sim::Session per
 * worker, BatchSession reuse per structural key) — the reference the
 * served path must reproduce byte-identically.
 */
sweep::Table runLocalSweep(const SweepSpec &spec, unsigned threads = 0,
                           sim::EngineOptions engine = {});

/**
 * runLocalSweep with the crash-safety layer (sweep/journal.hh): rows
 * found in the journal (by dense index) or result cache (by
 * pointKey()) are replayed, the rest simulated and journaled as they
 * complete. @p points selects the slice to run — a shard's sub-range,
 * or the grid's full point set (pass spec.grid().points()); the
 * points must come from this spec's grid. Table assembly and refusal
 * semantics are runJournaledSweep's. @p on_point (optional) fires
 * after each freshly *computed* point, on the worker thread that ran
 * it — the shard heartbeat hook; the callee synchronizes.
 */
sweep::JournalStatus runLocalSweepDurable(
    const SweepSpec &spec, const std::vector<sweep::Point> &points,
    unsigned threads, sim::EngineOptions engine,
    const sweep::JournalOptions &opts, sweep::Table *out,
    sweep::ResumeStats *stats, std::string *err,
    const std::function<void(const sweep::Point &)> &on_point = {});

} // namespace serve
} // namespace eq

#endif // EQ_SERVE_MODELS_HH
