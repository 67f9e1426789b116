/** @file NISQPP_BATCH, the env twin of --batch: malformed lane counts
 * must warn and keep the previous setting. The cross-knob contract is
 * in test_knobs.cc. */

#include <gtest/gtest.h>

#include <string>

#include "engine/knobs.hh"
#include "engine/sweep.hh"
#include "support/scoped_env.hh"

namespace nisqpp {
namespace {

std::size_t
batchFromEnv(const char *value, std::size_t fallback)
{
    return envValue(knobs::batch, value, fallback);
}

TEST(BatchEnv, UnsetKeepsFallback)
{
    EXPECT_EQ(batchFromEnv(nullptr, 1), 1u);
    EXPECT_EQ(batchFromEnv(nullptr, 64), 64u);
}

TEST(BatchEnv, ValidValueIsUsed)
{
    EXPECT_EQ(batchFromEnv("256", 1), 256u);
}

TEST(BatchEnv, OneIsValid)
{
    EXPECT_EQ(batchFromEnv("1", 64), 1u);
}

TEST(BatchEnv, MaxIsValid)
{
    EXPECT_EQ(batchFromEnv(std::to_string(kMaxBatchLanes).c_str(), 1),
              kMaxBatchLanes);
}

TEST(BatchEnv, ExponentNotationIsAcceptedWhenIntegral)
{
    // One count parser serves every count knob and its flag, so
    // integral exponent notation is accepted everywhere.
    EXPECT_EQ(batchFromEnv("1e2", 1), 100u);
}

TEST(BatchEnv, ZeroRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("0", 32), 32u);
}

TEST(BatchEnv, NegativeRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("-3", 32), 32u);
}

TEST(BatchEnv, NonNumericRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("lots", 32), 32u);
}

TEST(BatchEnv, TrailingGarbageRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("64x", 32), 32u);
}

TEST(BatchEnv, FractionalRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("3.5", 32), 32u);
}

TEST(BatchEnv, AbsurdRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("99999999", 32), 32u);
}

TEST(BatchEnv, InfinityRejectedKeepsPrevious)
{
    EXPECT_EQ(batchFromEnv("inf", 32), 32u);
}

} // namespace
} // namespace nisqpp
