/** @file Tests for the xoshiro256** RNG wrapper. */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"

namespace nisqpp {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, FirstOutputsArePinned)
{
    // The generator's stream is part of every golden: pin the first
    // draws of two seeds (SplitMix64 expansion + xoshiro256**) so any
    // change to next() or the seeding fails here, not as golden drift.
    const std::uint64_t seed0[] = {
        0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL,
        0x1a5f849d4933e6e0ULL, 0x6aa594f1262d2d2cULL,
        0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
        0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL};
    const std::uint64_t seed12345[] = {
        0xbe6a36374160d49bULL, 0x214aaa0637a688c6ULL,
        0xf69d16de9954d388ULL, 0x0c60048c4e96e033ULL,
        0x8e2076aeed51c648ULL, 0x02bbcc1c1fc50f84ULL,
        0x28e72a4fec84f699ULL, 0x4bb9d7cbb8dddebeULL};
    Rng a(0), b(12345);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.next(), seed0[i]) << "seed 0 draw " << i;
        EXPECT_EQ(b.next(), seed12345[i]) << "seed 12345 draw " << i;
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(9);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(6));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 32; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

} // namespace
} // namespace nisqpp
