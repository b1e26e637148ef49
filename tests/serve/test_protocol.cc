/**
 * @file
 * Wire-protocol building blocks: the Json value type round-trips every
 * kind bit-exactly (ints stay ints, doubles go through "%.17g", object
 * member order is preserved — the determinism the byte-identical
 * served-sweep guarantee rests on), the parser rejects malformed
 * input, and the ModelKey JSON codec is strict about unknown fields.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <unistd.h>

#include "serve/models.hh"
#include "serve/protocol.hh"

namespace {

using namespace eq;
using serve::Json;

Json
reparse(const Json &v)
{
    Json out;
    std::string err;
    EXPECT_TRUE(Json::parse(v.dump(), &out, &err)) << err;
    return out;
}

TEST(ServeJson, ScalarRoundTrips)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(int64_t(-9007199254740993ll)).dump(),
              "-9007199254740993");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");

    Json i = reparse(Json(int64_t(1) << 62));
    ASSERT_TRUE(i.isInt()); // stays Int, no double round-trip damage
    EXPECT_EQ(i.asInt(), int64_t(1) << 62);
}

TEST(ServeJson, DoubleRoundTripsBitExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300,
                     -123456.789012345678, 0.0}) {
        Json out = reparse(Json(v));
        ASSERT_TRUE(out.isNumber());
        EXPECT_EQ(std::signbit(out.asReal()), std::signbit(v));
        EXPECT_EQ(out.asReal(), v) << Json(v).dump();
    }
    // Non-finite doubles are not JSON: they serialize as null.
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(ServeJson, StringEscapes)
{
    Json s(std::string("a\"b\\c\n\t\x01z"));
    EXPECT_EQ(s.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
    Json out = reparse(s);
    EXPECT_EQ(out.asStr(), s.asStr());

    // \uXXXX escapes decode to UTF-8.
    Json u;
    std::string err;
    ASSERT_TRUE(Json::parse("\"\\u00e9\\u0041\"", &u, &err)) << err;
    EXPECT_EQ(u.asStr(), "\xc3\xa9"
                         "A");
}

TEST(ServeJson, ObjectOrderPreserved)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mid", Json::array());
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mid\":[]}");
    // set() replaces in place without reordering.
    obj.set("zebra", 9);
    EXPECT_EQ(obj.dump(), "{\"zebra\":9,\"apple\":2,\"mid\":[]}");

    Json out = reparse(obj);
    EXPECT_EQ(out.dump(), obj.dump());
    ASSERT_NE(out.find("apple"), nullptr);
    EXPECT_EQ(out.find("apple")->asInt(), 2);
    EXPECT_EQ(out.find("missing"), nullptr);
    EXPECT_EQ(out.getInt("zebra", -1), 9);
    EXPECT_EQ(out.getInt("nope", -1), -1);
}

TEST(ServeJson, ParseRejectsMalformedInput)
{
    Json out;
    std::string err;
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"",
          "{\"a\" 1}", "nullx", "[1, 2", "\"unterminated"}) {
        EXPECT_FALSE(Json::parse(bad, &out, &err))
            << "accepted: " << bad;
        EXPECT_FALSE(err.empty());
    }
    // Surrounding whitespace is fine.
    EXPECT_TRUE(Json::parse("  [1,2,3]\n", &out, &err)) << err;
    ASSERT_TRUE(out.isArray());
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(out.at(2).asInt(), 3);
}

TEST(ServeJson, ResponseSkeletons)
{
    Json id(7);
    Json ok = serve::makeResponse(&id, "report");
    EXPECT_EQ(ok.getInt("id", -1), 7);
    EXPECT_TRUE(ok.getBool("ok", false));
    EXPECT_EQ(ok.getStr("type", ""), "report");

    Json err =
        serve::makeError(nullptr, serve::ErrorCode::BadRequest, "boom");
    EXPECT_FALSE(err.getBool("ok", true));
    serve::ErrorInfo info = serve::parseError(err);
    EXPECT_EQ(info.code, serve::ErrorCode::BadRequest);
    EXPECT_EQ(info.message, "boom");
    EXPECT_EQ(info.retryAfterMs, -1);

    Json busy = serve::makeError(&id, serve::ErrorCode::Backpressure,
                                 "queue full", /*retry_after_ms=*/25);
    EXPECT_EQ(busy.getInt("id", -1), 7);
    info = serve::parseError(busy);
    EXPECT_EQ(info.code, serve::ErrorCode::Backpressure);
    EXPECT_EQ(info.retryAfterMs, 25);
}

TEST(ServeProtocol, ErrorCodeNamesRoundTrip)
{
    using serve::ErrorCode;
    for (ErrorCode code :
         {ErrorCode::MalformedRequest, ErrorCode::FrameTooLarge,
          ErrorCode::BadRequest, ErrorCode::Backpressure,
          ErrorCode::DeadlineExceeded, ErrorCode::Cancelled,
          ErrorCode::BuildFailed, ErrorCode::Internal,
          ErrorCode::ShuttingDown}) {
        ErrorCode back = ErrorCode::None;
        ASSERT_TRUE(
            serve::errorCodeFromName(serve::errorCodeName(code), &back))
            << serve::errorCodeName(code);
        EXPECT_EQ(back, code);
    }
    // Client-side-only values never parse off the wire.
    ErrorCode out = ErrorCode::None;
    EXPECT_FALSE(serve::errorCodeFromName("none", &out));
    EXPECT_FALSE(serve::errorCodeFromName("unknown", &out));
    EXPECT_FALSE(serve::errorCodeFromName("bogus", &out));

    // Retryability: only transient server-side conditions.
    EXPECT_TRUE(serve::errorCodeRetryable(ErrorCode::Backpressure));
    EXPECT_TRUE(serve::errorCodeRetryable(ErrorCode::BuildFailed));
    EXPECT_TRUE(serve::errorCodeRetryable(ErrorCode::Internal));
    EXPECT_FALSE(serve::errorCodeRetryable(ErrorCode::BadRequest));
    EXPECT_FALSE(serve::errorCodeRetryable(ErrorCode::DeadlineExceeded));
    EXPECT_FALSE(serve::errorCodeRetryable(ErrorCode::FrameTooLarge));

    // Legacy free-text errors parse as Unknown, never crash.
    Json legacy = Json::object();
    legacy.set("ok", false);
    legacy.set("error", "something went wrong");
    EXPECT_EQ(serve::parseError(legacy).code, serve::ErrorCode::Unknown);
}

TEST(ServeLineReader, CapsOversizedLines)
{
    // A terminated line beyond the cap ends the stream with the
    // overflow bit — after shorter lines were delivered normally.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload =
        "hello\n" + std::string(64, 'x') + "\n";
    ASSERT_EQ(::write(fds[1], payload.data(), payload.size()),
              ssize_t(payload.size()));
    ::close(fds[1]);
    serve::LineReader reader(fds[0], /*max_line=*/16);
    EXPECT_EQ(reader.maxLine(), 16u);
    std::string line;
    ASSERT_TRUE(reader.next(&line));
    EXPECT_EQ(line, "hello");
    EXPECT_FALSE(reader.next(&line));
    EXPECT_TRUE(reader.overflowed());
    ::close(fds[0]);

    // An endless unterminated line overflows too — the reader must not
    // buffer until EOF.
    ASSERT_EQ(::pipe(fds), 0);
    const std::string endless(64, 'y'); // no newline
    ASSERT_EQ(::write(fds[1], endless.data(), endless.size()),
              ssize_t(endless.size()));
    serve::LineReader reader2(fds[0], /*max_line=*/16);
    EXPECT_FALSE(reader2.next(&line)); // write end still open!
    EXPECT_TRUE(reader2.overflowed());
    ::close(fds[1]);
    ::close(fds[0]);

    // At or under the cap is fine, including the unterminated tail.
    ASSERT_EQ(::pipe(fds), 0);
    const std::string tail = "ab\ncd";
    ASSERT_EQ(::write(fds[1], tail.data(), tail.size()),
              ssize_t(tail.size()));
    ::close(fds[1]);
    serve::LineReader reader3(fds[0], /*max_line=*/16);
    ASSERT_TRUE(reader3.next(&line));
    EXPECT_EQ(line, "ab");
    ASSERT_TRUE(reader3.next(&line));
    EXPECT_EQ(line, "cd");
    EXPECT_FALSE(reader3.next(&line));
    EXPECT_FALSE(reader3.overflowed());
    ::close(fds[0]);
}

// -- seeded mutation/fuzz property test for the strict parser ---------

uint64_t
fuzzRnd(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

Json
randomJson(uint64_t &s, int depth)
{
    switch (fuzzRnd(s) % (depth > 0 ? 7 : 5)) {
    case 0: return Json();
    case 1: return Json(bool(fuzzRnd(s) & 1));
    case 2: return Json(static_cast<int64_t>(fuzzRnd(s)));
    case 3:
        return Json(static_cast<double>(
                        static_cast<int64_t>(fuzzRnd(s))) *
                    1e-3);
    case 4: {
        std::string str;
        size_t n = fuzzRnd(s) % 9;
        for (size_t i = 0; i < n; ++i) {
            switch (fuzzRnd(s) % 8) {
            case 0: str += '"'; break;
            case 1: str += '\\'; break;
            case 2: str += '\n'; break;
            case 3: str += '\x01'; break;
            default:
                str += static_cast<char>(' ' + fuzzRnd(s) % 95);
            }
        }
        return Json(std::move(str));
    }
    case 5: {
        Json arr = Json::array();
        size_t n = fuzzRnd(s) % 4;
        for (size_t i = 0; i < n; ++i)
            arr.push(randomJson(s, depth - 1));
        return arr;
    }
    default: {
        Json obj = Json::object();
        size_t n = fuzzRnd(s) % 4;
        for (size_t i = 0; i < n; ++i)
            obj.set("k" + std::to_string(fuzzRnd(s) % 8),
                    randomJson(s, depth - 1));
        return obj;
    }
    }
}

TEST(ServeJsonFuzz, GeneratedDocumentsRoundTripExactly)
{
    uint64_t seed = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 300; ++round) {
        Json doc = randomJson(seed, 4);
        const std::string text = doc.dump();
        Json back;
        std::string err;
        ASSERT_TRUE(Json::parse(text, &back, &err))
            << text << ": " << err;
        EXPECT_EQ(back.dump(), text);
    }
}

TEST(ServeJsonFuzz, MutatedDocumentsNeverCrashAndStayCanonical)
{
    // Seeded byte-level mutations of valid documents: the parser must
    // never crash, and anything it *does* accept must reach a stable
    // canonical form after one dump (dump -> parse -> dump is the
    // identity on dumps).
    std::string charset = "{}[],:\"0123456789eE+-.truefalsn x";
    charset += '\\';
    charset.push_back('\0'); // embedded NUL: reject, don't truncate
    uint64_t seed = 0x2545f4914f6cdd1dull;
    int accepted = 0, rejected = 0;
    for (int round = 0; round < 150; ++round) {
        std::string text = randomJson(seed, 3).dump();
        for (int mut = 0; mut < 8; ++mut) {
            std::string mutated = text;
            const int edits = 1 + int(fuzzRnd(seed) % 3);
            for (int e = 0; e < edits; ++e) {
                const char c =
                    charset[fuzzRnd(seed) % charset.size()];
                const size_t pos =
                    mutated.empty() ? 0
                                    : fuzzRnd(seed) % mutated.size();
                switch (fuzzRnd(seed) % 3) {
                case 0:
                    if (!mutated.empty())
                        mutated[pos] = c;
                    break;
                case 1: mutated.insert(pos, 1, c); break;
                default:
                    if (!mutated.empty())
                        mutated.erase(pos, 1);
                    break;
                }
            }
            Json out;
            std::string err;
            if (!Json::parse(mutated, &out, &err)) {
                EXPECT_FALSE(err.empty()) << mutated;
                ++rejected;
                continue;
            }
            ++accepted;
            const std::string canon = out.dump();
            Json again;
            ASSERT_TRUE(Json::parse(canon, &again, &err))
                << canon << ": " << err;
            EXPECT_EQ(again.dump(), canon) << "from: " << mutated;
        }
    }
    // The mutation engine must exercise both sides of the parser.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

TEST(ServeJsonFuzz, DeepNestingIsRejectedNotOverflowed)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    Json out;
    std::string err;
    EXPECT_FALSE(Json::parse(deep, &out, &err));
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(ServeModels, ModelKeyJsonRoundTrip)
{
    // The defaults plus a non-default preset (a mixed-dataflow accel
    // list and a Window bus) exercise every field kind.
    for (const serve::ModelKey &key :
         {serve::defaultKey(serve::ModelKind::Systolic),
          serve::defaultKey(serve::ModelKind::Soc),
          serve::defaultKey(serve::ModelKind::Pipeline),
          serve::ModelKey::socKey(soc::SocConfig::heteroStarved())}) {
        Json cfg = serve::modelKeyToJson(key);
        serve::ModelKey back;
        std::string err;
        ASSERT_TRUE(serve::modelKeyFromJson(key.kind, cfg, &back, &err))
            << err;
        EXPECT_TRUE(back == key) << serve::modelName(key.kind);
        EXPECT_EQ(back.hash(), key.hash());
    }
}

TEST(ServeModels, ModelKeyJsonOverridesFields)
{
    Json cfg = Json::object();
    cfg.set("ah", 8);
    cfg.set("df", "OS");
    serve::ModelKey key;
    std::string err;
    ASSERT_TRUE(serve::modelKeyFromJson(serve::ModelKind::Systolic, cfg,
                                        &key, &err))
        << err;
    EXPECT_EQ(key.systolic.ah, 8);
    EXPECT_EQ(key.systolic.dataflow, scalesim::Dataflow::OS);
    // Untouched fields keep the family defaults.
    EXPECT_EQ(key.systolic.aw,
              serve::defaultKey(serve::ModelKind::Systolic).systolic.aw);
}

TEST(ServeModels, ModelKeyJsonRejectsUnknownFields)
{
    Json cfg = Json::object();
    cfg.set("ahh", 8); // typo must not silently simulate the default
    serve::ModelKey key;
    std::string err;
    EXPECT_FALSE(serve::modelKeyFromJson(serve::ModelKind::Systolic,
                                         cfg, &key, &err));
    EXPECT_NE(err.find("ahh"), std::string::npos) << err;
}

TEST(ServeModels, ApplyAxisChangesKeyIdentity)
{
    serve::ModelKey a = serve::defaultKey(serve::ModelKind::Systolic);
    serve::ModelKey b = a;
    std::string err;
    ASSERT_TRUE(serve::applyAxis(&b, "ah", 8, &err)) << err;
    EXPECT_TRUE(a != b);
    EXPECT_NE(a.hash(), b.hash());

    EXPECT_FALSE(serve::applyAxis(&b, "bogus_axis", 1, &err));
    EXPECT_NE(err.find("bogus_axis"), std::string::npos) << err;
}

} // namespace
