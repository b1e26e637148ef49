/**
 * @file
 * The model families' field tables and everything derived from them:
 * the byte-stable wire format, equality and hashing over every field,
 * validation (one case per rejected field, the error naming the
 * field; the daemon's answers are in test_server.cc), the sweep grid
 * bound and cross-field rules across axis combinations, and the ranges
 * pinned inside the generators' preconditions: every preset and
 * Fig. 12 point validates, and every field at its lower bound builds
 * and simulates.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/models.hh"
#include "sim/session.hh"

namespace {

using namespace eq;
using serve::Json;
using serve::ModelKey;
using serve::ModelKind;

const ModelKind kKinds[] = {ModelKind::Systolic, ModelKind::Soc,
                            ModelKind::Pipeline};

const fields::Table &
tableOf(ModelKind kind)
{
    switch (kind) {
    case ModelKind::Soc: return soc::SocConfig::fieldTable();
    case ModelKind::Pipeline: return soc::PipelineConfig::fieldTable();
    case ModelKind::Systolic: break;
    }
    return scalesim::Config::fieldTable();
}

void *
configOf(ModelKey &key)
{
    switch (key.kind) {
    case ModelKind::Soc: return &key.soc;
    case ModelKind::Pipeline: return &key.pipeline;
    case ModelKind::Systolic: break;
    }
    return &key.systolic;
}

Json
parse(const std::string &text)
{
    Json j;
    std::string err;
    EXPECT_TRUE(Json::parse(text, &j, &err)) << err;
    return j;
}

/** modelKeyFromJson's error for @p config, or "" when it is accepted. */
std::string
configError(ModelKind kind, const std::string &config)
{
    ModelKey key;
    std::string err;
    return serve::modelKeyFromJson(kind, parse(config), &key, &err)
               ? ""
               : err;
}

std::string
sweepError(const std::string &request)
{
    serve::SweepSpec spec;
    std::string err;
    return serve::SweepSpec::fromJson(parse(request), &spec, &err) ? ""
                                                                   : err;
}

void
buildAndSimulate(const ModelKey &key)
{
    sim::Session session;
    session.rebuild([&](ir::Context &ctx) { return key.build(ctx); });
    EXPECT_GT(session.run().cycles, 0u);
}

TEST(ConfigFields, DefaultDumpsAreByteStable)
{
    EXPECT_EQ(serve::modelKeyToJson(serve::defaultKey(ModelKind::Systolic))
                  .dump(),
              R"({"ah":4,"aw":4,"df":"WS","c":1,"h":8,"w":8,"n":1,)"
              R"("fh":2,"fw":2,"elem_bytes":4})");
    EXPECT_EQ(
        serve::modelKeyToJson(serve::defaultKey(ModelKind::Soc)).dump(),
        R"({"accels":[{"ah":2,"aw":2,"df":"WS","link_bw":8},)"
        R"({"ah":2,"aw":2,"df":"WS","link_bw":8}],"bus_bw":8,)"
        R"("bus_kind":"Streaming","sram_banks":4,"dmas":1,"rounds":2,)"
        R"("steps":4,"elem_bytes":4})");
    EXPECT_EQ(serve::modelKeyToJson(serve::defaultKey(ModelKind::Pipeline))
                  .dump(),
              R"({"stages":4,"batches":6,"tile_elems":16,"compute":2,)"
              R"("dma_bw":8,"hop_bw":4,"elem_bytes":4})");
}

/** Every input that used to crash a process or be silently accepted. */
TEST(ConfigFields, EvidenceConfigsAreRejectedNamingTheField)
{
    const struct {
        ModelKind kind;
        const char *config;
        const char *field;
    } rows[] = {
        {ModelKind::Systolic, R"({"ah":0})", "'ah'"},
        {ModelKind::Systolic, R"({"h":0})", "'h'"},
        {ModelKind::Systolic, R"({"fh":50})", "'fh'"},
        {ModelKind::Soc, R"({"dmas":0})", "'dmas'"},
        {ModelKind::Soc, R"({"accels":[]})", "'accels'"},
        {ModelKind::Soc, R"({"sram_banks":0})", "'sram_banks'"},
        {ModelKind::Pipeline, R"({"stages":0})", "'stages'"},
        {ModelKind::Pipeline, R"({"batches":0})", "'batches'"},
        {ModelKind::Systolic, R"({"ah":-2})", "'ah'"},
        {ModelKind::Systolic, R"({"ah":2147483648})", "'ah'"},
        {ModelKind::Systolic, R"({"c":0})", "'c'"},
        {ModelKind::Systolic, R"({"n":0})", "'n'"},
        {ModelKind::Soc, R"({"rounds":0})", "'rounds'"},
        {ModelKind::Soc, R"({"steps":-1})", "'steps'"},
        {ModelKind::Pipeline, R"({"compute":-1})", "'compute'"},
        {ModelKind::Pipeline, R"({"tile_elems":0})", "'tile_elems'"},
        {ModelKind::Soc, R"({"accels":[{"ah":0}]})", "'accels[0].ah'"},
        {ModelKind::Soc, R"({"bus_bw":-1})", "'bus_bw'"},
        {ModelKind::Soc, R"({"bus_kind":"Bus"})", "'bus_kind'"},
        {ModelKind::Systolic, R"({"df":"XS"})", "'df'"},
        {ModelKind::Systolic, R"({"elem_bytes":9})", "'elem_bytes'"},
        {ModelKind::Pipeline, R"({"elem_bytes":0})", "'elem_bytes'"},
        {ModelKind::Systolic, R"({"ah":"4"})", "'ah'"},
    };
    for (const auto &row : rows) {
        std::string err = configError(row.kind, row.config);
        EXPECT_NE(err.find(row.field), std::string::npos)
            << row.config << " -> \"" << err << "\"";
    }
    // Bandwidth 0 keeps meaning unlimited.
    EXPECT_EQ(configError(ModelKind::Soc, R"({"bus_bw":0})"), "");
    EXPECT_EQ(configError(ModelKind::Pipeline, R"({"hop_bw":0})"), "");
}

TEST(ConfigFields, EvidenceSweepAxesAreRejectedNamingTheField)
{
    const struct {
        const char *request;
        const char *field;
    } rows[] = {
        {R"({"model":"systolic","axes":[{"name":"ah","values":[4,0]}]})",
         "'ah'"},
        {R"({"model":"systolic","axes":[{"name":"hw","values":[8,1]}]})",
         "'fh'"},
        {R"({"model":"systolic","axes":[{"name":"f","values":[2,20]}]})",
         "'fh'"},
        {R"({"model":"soc","axes":[{"name":"dmas","values":[1,0]}]})",
         "'dmas'"},
        {R"({"model":"soc","axes":[{"name":"sram_banks","values":[1,0]}]})",
         "'sram_banks'"},
        {R"({"model":"soc","axes":[{"name":"tiles","values":[0]}]})",
         "'tiles'"},
        {R"({"model":"systolic","axes":[{"name":"df","values":[3]}]})",
         "'df'"},
    };
    for (const auto &row : rows) {
        std::string err = sweepError(row.request);
        EXPECT_NE(err.find(row.field), std::string::npos)
            << row.request << " -> \"" << err << "\"";
    }
}

TEST(ConfigFields, AxisCombinationBreakingFilterRuleIsRejected)
{
    // hw and f are each valid alone; the point hw=4, f=6 is not.
    std::string err = sweepError(
        R"({"model":"systolic","axes":[{"name":"hw","values":[4,8]},)"
        R"({"name":"f","values":[2,6]}]})");
    EXPECT_NE(err.find("sweep point 1"), std::string::npos) << err;
    EXPECT_NE(err.find("'fh'"), std::string::npos) << err;
}

TEST(ConfigFields, SweepGridIsBounded)
{
    serve::SweepSpec spec;
    spec.base = serve::defaultKey(ModelKind::Systolic);
    std::vector<int64_t> many(300, 1);
    spec.axes = {{"c", many}, {"n", many}};
    std::string err;
    EXPECT_FALSE(spec.validate(&err));
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;

    spec.axes = {{"ah", {2}}, {"ah", {4}}};
    EXPECT_FALSE(spec.validate(&err));
    EXPECT_NE(err.find("twice"), std::string::npos) << err;
}

TEST(ConfigFields, DefaultsAndPresetsValidate)
{
    for (ModelKind kind : kKinds) {
        std::string err;
        EXPECT_TRUE(serve::defaultKey(kind).validate(&err)) << err;
    }
    std::string err;
    EXPECT_TRUE(ModelKey::socKey(soc::SocConfig::dualSharedBus())
                    .validate(&err))
        << err;
    EXPECT_TRUE(ModelKey::socKey(soc::SocConfig::heteroStarved())
                    .validate(&err))
        << err;
    EXPECT_TRUE(ModelKey::pipelineKey(soc::PipelineConfig::small())
                    .validate(&err))
        << err;
}

/** bench/fig12_scalability's full grid (the paper's Fig. 12). */
TEST(ConfigFields, FullFig12GridValidates)
{
    int points = 0;
    for (int df = 0; df < 3; ++df)
        for (int ah : {2, 4, 8, 16, 32})
            for (int hw : {2, 4, 8, 16, 32})
                for (int f : {1, 2, 4})
                    for (int n : {1, 2, 4, 8, 16, 32}) {
                        if (hw < f)
                            continue;
                        scalesim::Config cfg;
                        cfg.dataflow = scalesim::Dataflow(df);
                        cfg.ah = ah;
                        cfg.aw = 64 / ah;
                        cfg.c = cfg.fh = cfg.fw = f;
                        cfg.h = cfg.w = hw;
                        cfg.n = n;
                        std::string err;
                        EXPECT_TRUE(
                            ModelKey::systolicKey(cfg).validate(&err))
                            << err;
                        ++points;
                    }
    EXPECT_EQ(points, 1260);
}

/** The validator's lower bounds sit inside the generators'
 *  preconditions: each field at its lower bound (the rest at their
 *  defaults) builds and simulates, and so does every field at once. */
TEST(ConfigFields, EveryFieldAtLowerBoundBuildsAndSimulates)
{
    for (ModelKind kind : kKinds) {
        const fields::Table &t = tableOf(kind);
        ModelKey all = serve::defaultKey(kind);
        for (const fields::Field &f : t.fields) {
            SCOPED_TRACE(std::string(t.what) + "." + f.name);
            ModelKey key = serve::defaultKey(kind);
            f.set(configOf(key), f.lo);
            f.set(configOf(all), f.lo);
            std::string err;
            if (key.validate(&err))
                buildAndSimulate(key);
            else // only h, w below the default filter may not fit
                EXPECT_NE(err.find("must not exceed"), std::string::npos)
                    << err;
        }
        SCOPED_TRACE(std::string(t.what) + " all fields at lower bound");
        std::string err;
        ASSERT_TRUE(all.validate(&err)) << err;
        buildAndSimulate(all);
    }
}

/** Equal configs hash equal; changing any one field moves both the
 *  key's and the config's own equality and hash. */
TEST(ConfigFields, EveryFieldMovesEqualityAndHash)
{
    for (ModelKind kind : kKinds) {
        const fields::Table &t = tableOf(kind);
        const ModelKey base = serve::defaultKey(kind);
        ModelKey copy = base;
        EXPECT_EQ(copy, base);
        EXPECT_EQ(copy.hash(), base.hash());
        for (const fields::Field &f : t.fields) {
            SCOPED_TRACE(std::string(t.what) + "." + f.name);
            ModelKey key = base;
            void *cfg = configOf(key);
            f.set(cfg, f.get(cfg) == f.hi ? f.lo : f.get(cfg) + 1);
            EXPECT_NE(key, base);
            EXPECT_NE(key.hash(), base.hash());
            EXPECT_NE(fields::hash(t, cfg), fields::hash(t, configOf(copy)));
        }
    }
    // A field inside a list entry counts too.
    soc::SocConfig a = soc::SocConfig::dualSharedBus(), b = a;
    b.accels[1].linkBytesPerCycle = 4;
    EXPECT_NE(a, b);
    EXPECT_NE(a.hash(), b.hash());
    // Kinds never compare equal, even with default configs.
    EXPECT_NE(serve::defaultKey(ModelKind::Soc),
              serve::defaultKey(ModelKind::Pipeline));
}

TEST(ConfigFields, ParseAxis)
{
    serve::SweepAxis axis;
    ASSERT_TRUE(serve::parseAxis("ah=2,4,-8", &axis));
    EXPECT_EQ(axis.name, "ah");
    EXPECT_EQ(axis.values, (std::vector<int64_t>{2, 4, -8}));
    for (const char *bad : {"ah", "=1", "ah=", "ah=1,", "ah=1,,2", "ah=x",
                            "ah=99999999999999999999"})
        EXPECT_FALSE(serve::parseAxis(bad, &axis)) << bad;
}

} // namespace
