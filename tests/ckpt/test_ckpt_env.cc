/** @file NISQPP_CKPT_INTERVAL, the env twin of --checkpoint-interval:
 * malformed cadences must warn and keep the previous setting. The
 * cross-knob contract is in tests/engine/test_knobs.cc. */

#include <gtest/gtest.h>

#include <string>

#include "ckpt/checkpoint.hh"
#include "engine/knobs.hh"
#include "support/scoped_env.hh"

namespace nisqpp {
namespace {

std::size_t
intervalFromEnv(const char *value, std::size_t fallback)
{
    return envValue(knobs::checkpointInterval, value, fallback);
}

TEST(CkptIntervalEnv, UnsetKeepsFallback)
{
    EXPECT_EQ(intervalFromEnv(nullptr, 32), 32u);
    EXPECT_EQ(intervalFromEnv(nullptr, 7), 7u);
}

TEST(CkptIntervalEnv, ValidValueIsUsed)
{
    EXPECT_EQ(intervalFromEnv("128", 32), 128u);
}

TEST(CkptIntervalEnv, OneIsValid)
{
    EXPECT_EQ(intervalFromEnv("1", 32), 1u);
}

TEST(CkptIntervalEnv, MaxIsValid)
{
    EXPECT_EQ(intervalFromEnv(
                  std::to_string(ckpt::kMaxCheckpointInterval).c_str(),
                  32),
              ckpt::kMaxCheckpointInterval);
}

TEST(CkptIntervalEnv, ExponentNotationIsAcceptedWhenIntegral)
{
    // One count parser serves every count knob and its flag, so
    // integral exponent notation is accepted everywhere.
    EXPECT_EQ(intervalFromEnv("1e3", 32), 1000u);
}

TEST(CkptIntervalEnv, ZeroRejectedKeepsPrevious)
{
    EXPECT_EQ(intervalFromEnv("0", 32), 32u);
}

TEST(CkptIntervalEnv, NegativeRejectedKeepsPrevious)
{
    EXPECT_EQ(intervalFromEnv("-4", 32), 32u);
}

TEST(CkptIntervalEnv, FractionalRejectedKeepsPrevious)
{
    EXPECT_EQ(intervalFromEnv("2.5", 32), 32u);
}

TEST(CkptIntervalEnv, NonNumericRejectedKeepsPrevious)
{
    EXPECT_EQ(intervalFromEnv("often", 32), 32u);
}

TEST(CkptIntervalEnv, TrailingJunkRejectedKeepsPrevious)
{
    EXPECT_EQ(intervalFromEnv("12x", 32), 32u);
}

TEST(CkptIntervalEnv, AboveMaxRejectedKeepsPrevious)
{
    EXPECT_EQ(intervalFromEnv("1000000001", 32), 32u);
}

} // namespace
} // namespace nisqpp
