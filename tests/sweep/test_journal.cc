/**
 * @file
 * Journal semantics: round-trip resume, the pinned recovery policy
 * (torn/bit-flipped *tail* records truncate and recompute; damage with
 * valid records after it refuses as Corrupt; a header-less file is
 * recreated; duplicate records resolve last-write-wins), and the
 * header checks that keep a stale journal from silently merging into
 * the wrong sweep; the persisted hash values are pinned.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "base/fnv.hh"
#include "base/fsutil.hh"
#include "sweep/journal.hh"
#include "sweep/resultcache.hh"

namespace {

using namespace eq;
using sweep::Cell;
using sweep::Column;
using sweep::ValueKind;

std::vector<Column>
abSchema()
{
    return {{"a", ValueKind::Int, 0, 0},
            {"b", ValueKind::Int, 0, 0},
            {"prod", ValueKind::Int, 0, 0}};
}

sweep::Grid
abGrid()
{
    sweep::Grid g;
    g.axis("a", {1, 2, 3}).axis("b", {5, 6});
    return g;
}

std::string
abKey(const sweep::Point &p)
{
    return "a=" + std::to_string(p.at("a")) +
           ",b=" + std::to_string(p.at("b"));
}

std::vector<Cell>
abRow(const sweep::Point &p)
{
    return {p.at("a"), p.at("b"), p.at("a") * p.at("b")};
}

/** File contents (must exist). */
std::string
slurp(const std::string &path)
{
    std::string text, err;
    EXPECT_TRUE(fs::readFile(path, &text, &err)) << err;
    return text;
}

void
spill(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** A correctly CRC-sealed record line, the way Journal::append builds
 *  one — for forging duplicates and collision probes. */
std::string
sealedRecord(size_t index, const std::string &key,
             const std::vector<Cell> &cells)
{
    serve::Json rec = serve::Json::object();
    rec.set("i", static_cast<int64_t>(index));
    rec.set("key", key);
    rec.set("cells", serve::cellsToJson(cells));
    std::string payload = rec.dump();
    uint32_t crc = fs::crc32(payload.data(), payload.size());
    payload.pop_back();
    return payload + ",\"crc\":" + std::to_string(crc) + "}\n";
}

class JournalTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "eq_journal_" +
               std::string(info->name()) + ".ndjson";
        std::remove(path.c_str());
        engine.backend = sim::Backend::Interp;
        engine.fuse = sim::Fusion::Off;
    }

    /** Run the a×b sweep journaled at `path`; returns the status and
     *  fills table/stats. @p calls counts RowFn invocations. */
    sweep::JournalStatus
    run(bool resume, sweep::Table *table, sweep::ResumeStats *stats,
        std::string *err, size_t *calls = nullptr,
        const sweep::Grid *grid_override = nullptr,
        const std::string &salt = "")
    {
        sweep::Grid grid = grid_override ? *grid_override : abGrid();
        auto points = grid.points();
        sweep::JournalOptions opts;
        opts.journalPath = path;
        opts.resume = resume;
        opts.salt = salt;
        sweep::SweepRunner runner({1});
        return runJournaledSweep(
            runner, points, abSchema(), abKey,
            [&](const sweep::Point &p, unsigned) {
                if (calls)
                    ++*calls;
                return abRow(p);
            },
            opts, engine, table, stats, err);
    }

    std::string path;
    sim::EngineOptions engine;
};

TEST_F(JournalTest, HeaderRoundTripAndMatches)
{
    sweep::JournalHeader h;
    h.gridHash = 0x0123456789abcdefull;
    h.numPoints = 42;
    h.schemaSig = "a:i;x:r;s:s";
    h.backend = "compiled";
    h.fuse = "on";
    h.salt = "model base";

    sweep::JournalHeader back;
    std::string err;
    ASSERT_TRUE(
        sweep::JournalHeader::fromJson(h.toJson(), &back, &err))
        << err;
    std::string why;
    EXPECT_TRUE(h.matches(back, &why)) << why;

    back.gridHash ^= 1;
    EXPECT_FALSE(h.matches(back, &why));
    EXPECT_NE(why.find("grid_hash"), std::string::npos) << why;

    back = h;
    back.backend = "interp";
    EXPECT_FALSE(h.matches(back, &why));
    EXPECT_NE(why.find("backend"), std::string::npos) << why;
}

TEST_F(JournalTest, SchemaSignatureNamesEveryColumnAndKind)
{
    EXPECT_EQ(sweep::schemaSignature(abSchema()), "a:i;b:i;prod:i");
    EXPECT_EQ(sweep::schemaSignature({{"x", ValueKind::Real, 0, 3},
                                      {"tag", ValueKind::Str, 0, 0}}),
              "x:r;tag:s");
}

TEST_F(JournalTest, HashPointsSeesValuesAndOrder)
{
    auto p1 = abGrid().points();
    uint64_t h1 = sweep::hashPoints(p1);

    sweep::Grid g2;
    g2.axis("a", {1, 2, 3}).axis("b", {5, 7}); // one value changed
    EXPECT_NE(h1, sweep::hashPoints(g2.points()));

    sweep::Grid g3;
    g3.axis("a", {5, 6}).axis("b", {1, 2, 3}); // axes swapped
    EXPECT_NE(h1, sweep::hashPoints(g3.points()));
}

TEST_F(JournalTest, ResumeReplaysEverythingAndMatchesByteForByte)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    size_t calls = 0;
    ASSERT_EQ(run(false, &t1, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 6u);
    EXPECT_EQ(st.computed, 6u);

    sweep::Table t2{abSchema()};
    calls = 0;
    ASSERT_EQ(run(true, &t2, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 0u) << "resume must not recompute";
    EXPECT_EQ(st.fromJournal, 6u);
    EXPECT_EQ(st.computed, 0u);
    EXPECT_EQ(t1.csv(), t2.csv());
}

TEST_F(JournalTest, TornTailRecordIsTruncatedAndRecomputed)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(false, &t1, &st, &err), sweep::JournalStatus::Ok);

    // Chop the final record off mid-line: a crash between write(2)
    // and completion.
    std::string text = slurp(path);
    spill(path, text.substr(0, text.size() - 7));

    sweep::Table t2{abSchema()};
    size_t calls = 0;
    ASSERT_EQ(run(true, &t2, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(st.fromJournal, 5u);
    EXPECT_EQ(st.computed, 1u);
    EXPECT_EQ(calls, 1u);
    EXPECT_GT(st.journalTruncatedBytes, 0u);
    EXPECT_EQ(t1.csv(), t2.csv());
}

TEST_F(JournalTest, BitFlippedTailRecordIsTruncatedAndRecomputed)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(false, &t1, &st, &err), sweep::JournalStatus::Ok);

    std::string text = slurp(path);
    // Flip a digit inside the last record's cells; CRC must catch it.
    size_t lastLine = text.rfind('\n', text.size() - 2) + 1;
    size_t cells = text.find("\"cells\":[", lastLine);
    ASSERT_NE(cells, std::string::npos);
    text[cells + 9] = text[cells + 9] == '1' ? '2' : '1';
    spill(path, text);

    sweep::Table t2{abSchema()};
    ASSERT_EQ(run(true, &t2, &st, &err), sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(st.fromJournal, 5u);
    EXPECT_EQ(st.computed, 1u);
    EXPECT_EQ(t1.csv(), t2.csv());
}

TEST_F(JournalTest, BitFlipBeforeValidRecordsRefusesAsCorrupt)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(false, &t1, &st, &err), sweep::JournalStatus::Ok);

    // Damage the *second* line (first record) — valid records follow,
    // so this is not a torn tail and must refuse.
    std::string text = slurp(path);
    size_t rec0 = text.find('\n') + 1;
    size_t cells = text.find("\"cells\":[", rec0);
    ASSERT_NE(cells, std::string::npos);
    text[cells + 9] = text[cells + 9] == '1' ? '2' : '1';
    spill(path, text);

    sweep::Table t2{abSchema()};
    EXPECT_EQ(run(true, &t2, &st, &err),
              sweep::JournalStatus::Corrupt);
    EXPECT_NE(err.find("valid data after"), std::string::npos) << err;
}

TEST_F(JournalTest, DifferentGridRefusesAsHeaderMismatch)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(false, &t1, &st, &err), sweep::JournalStatus::Ok);

    sweep::Grid other;
    other.axis("a", {1, 2, 3}).axis("b", {5, 6, 7}); // b grew
    sweep::Table t2{abSchema()};
    EXPECT_EQ(run(true, &t2, &st, &err, nullptr, &other),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("grid_hash"), std::string::npos) << err;
}

TEST_F(JournalTest, DifferentSaltRefusesAsHeaderMismatch)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(false, &t1, &st, &err), sweep::JournalStatus::Ok);

    sweep::Table t2{abSchema()};
    EXPECT_EQ(run(true, &t2, &st, &err, nullptr, nullptr,
                  "another model"),
              sweep::JournalStatus::HeaderMismatch);
    EXPECT_NE(err.find("salt"), std::string::npos) << err;
}

TEST_F(JournalTest, DuplicateRecordsResolveLastWriteWins)
{
    sweep::Table t1{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    ASSERT_EQ(run(false, &t1, &st, &err), sweep::JournalStatus::Ok);

    // Forge a well-formed duplicate for point 0 carrying different
    // cells; appended later, it must win the replay.
    std::string text = slurp(path);
    text += sealedRecord(0, "a=1,b=5", {int64_t(1), int64_t(5),
                                        int64_t(999)});
    spill(path, text);

    sweep::Table t2{abSchema()};
    size_t calls = 0;
    ASSERT_EQ(run(true, &t2, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(st.fromJournal, 6u);
    EXPECT_EQ(t2.at(0, 2).asInt(), 999);
}

TEST_F(JournalTest, HeaderlessFileIsRecreatedFresh)
{
    // A crash during create(): some bytes, no newline — records
    // cannot exist yet, so resume starts the journal over.
    spill(path, "{\"journal\":\"eqsw");

    sweep::Table t{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    size_t calls = 0;
    ASSERT_EQ(run(true, &t, &st, &err, &calls),
              sweep::JournalStatus::Ok)
        << err;
    EXPECT_EQ(calls, 6u);
    EXPECT_EQ(st.fromJournal, 0u);

    // And the recreated journal resumes normally afterwards.
    sweep::Table t2{abSchema()};
    calls = 0;
    ASSERT_EQ(run(true, &t2, &st, &err, &calls),
              sweep::JournalStatus::Ok);
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(t.csv(), t2.csv());
}

TEST_F(JournalTest, UnreadableHeaderLineRefusesAsCorrupt)
{
    spill(path, "not json at all\n" +
                    sealedRecord(0, "a=1,b=5",
                                 {int64_t(1), int64_t(5), int64_t(5)}));
    sweep::Table t{abSchema()};
    sweep::ResumeStats st;
    std::string err;
    EXPECT_EQ(run(true, &t, &st, &err), sweep::JournalStatus::Corrupt);
    EXPECT_NE(err.find("header"), std::string::npos) << err;
}

/** Journal grid hashes and result-cache buckets are persisted, so the
 *  shared FNV-1a must keep producing these exact values. */
TEST(PersistedHashes, FnvAndGridHashArePinned)
{
    EXPECT_EQ(fnv1a(kFnvOffset, std::string()), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a(kFnvOffset, std::string("a")), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a(kFnvOffset, std::string("foobar")),
              0x85944171f73967e8ull);
    EXPECT_EQ(sweep::ResultCache::hashKey("foobar"), 0x85944171f73967e8ull);
    sweep::Grid g;
    g.axis("ah", {2, 4}).axis("aw", {2, 4, 8}).axis("x", {-1, 0, 7});
    EXPECT_EQ(sweep::hashPoints(g.points()), 0xc32805686d0981a0ull);
}

TEST_F(JournalTest, StatusNamesAreStable)
{
    EXPECT_STREQ(sweep::journalStatusName(sweep::JournalStatus::Ok),
                 "ok");
    EXPECT_STREQ(
        sweep::journalStatusName(sweep::JournalStatus::IoError),
        "io_error");
    EXPECT_STREQ(
        sweep::journalStatusName(sweep::JournalStatus::HeaderMismatch),
        "journal_header_mismatch");
    EXPECT_STREQ(
        sweep::journalStatusName(sweep::JournalStatus::Corrupt),
        "journal_corrupt");
}

} // namespace
