/**
 * @file
 * parseIntInRange: the one parser behind every count flag and count
 * environment variable (eqsweep --threads/--emit-shards, eqserved's
 * numeric flags, EQ_SWEEP_THREADS, EQ_SERVE_WORKERS). Whole decimal
 * integers within the bounds parse; anything else is refused and leaves
 * the output untouched.
 */

#include <gtest/gtest.h>

#include "base/stringutil.hh"

namespace {

using namespace eq;

TEST(ParseIntInRange, AcceptsWholeIntegersWithinBounds)
{
    int64_t v = 0;
    EXPECT_TRUE(parseIntInRange("1", 1, kMaxWorkerThreads, &v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(parseIntInRange("256", 1, kMaxWorkerThreads, &v));
    EXPECT_EQ(v, 256);
    EXPECT_TRUE(parseIntInRange("-5", -10, 10, &v));
    EXPECT_EQ(v, -5);
    EXPECT_TRUE(parseIntInRange("0", 0, 65535, &v));
    EXPECT_EQ(v, 0);
}

TEST(ParseIntInRange, RefusesEverythingElse)
{
    for (const char *bad :
         {"", "abc", "-1", "0", "257", "4x", " 4", "4 ", "+4", "-", "1e3",
          "0x10", "99999999999999999999999", "-99999999999999999999"}) {
        int64_t v = 42;
        EXPECT_FALSE(parseIntInRange(bad, 1, kMaxWorkerThreads, &v))
            << "'" << bad << "'";
        EXPECT_EQ(v, 42) << "'" << bad << "'";
    }
    int64_t v = 42;
    EXPECT_FALSE(parseIntInRange(nullptr, 1, 2, &v));
    EXPECT_EQ(v, 42);
}

} // namespace
