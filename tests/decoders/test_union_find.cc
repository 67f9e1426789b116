/** @file Tests for the Union-Find decoder. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "decoders/union_find_decoder.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

class UnionFindParam : public ::testing::TestWithParam<int>
{
};

TEST_P(UnionFindParam, CorrectsAllWeightOneErrors)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
        UnionFindDecoder dec(lat, type);
        for (int q = 0; q < lat.numData(); ++q) {
            ErrorState st(lat);
            st.flip(type, q);
            const Correction corr =
                dec.decode(extractSyndrome(st, type));
            corr.applyTo(st, type);
            EXPECT_FALSE(classifyResidual(st, type).failed())
                << "d=" << d << " q=" << q;
        }
    }
}

TEST_P(UnionFindParam, AlwaysClearsSyndrome)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    UnionFindDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.1);
    Rng rng(0x0f1d + d);
    for (int t = 0; t < 300; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        ASSERT_EQ(extractSyndrome(st, ErrorType::Z).weight(), 0)
            << "trial " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, UnionFindParam,
                         ::testing::Values(3, 5, 7, 9));

TEST(UnionFind, EmptySyndromeNoWork)
{
    SurfaceLattice lat(5);
    UnionFindDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    EXPECT_TRUE(dec.decode(syn).dataFlips.empty());
    EXPECT_EQ(dec.lastGrowthRounds(), 0);
}

TEST(UnionFind, AdjacentPairResolvedLocally)
{
    SurfaceLattice lat(5);
    UnionFindDecoder dec(lat, ErrorType::Z);
    ErrorState st(lat);
    st.flip(ErrorType::Z, lat.dataIndex({2, 4}));
    const Correction corr = dec.decode(extractSyndrome(st, ErrorType::Z));
    ASSERT_EQ(corr.dataFlips.size(), 1u);
    EXPECT_EQ(corr.dataFlips[0], lat.dataIndex({2, 4}));
}

TEST(UnionFind, GrowthConverges)
{
    SurfaceLattice lat(9);
    UnionFindDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.15);
    Rng rng(0xff);
    for (int t = 0; t < 50; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        dec.decode(extractSyndrome(st, ErrorType::Z));
        ASSERT_LE(dec.lastGrowthRounds(), 4 * lat.gridSize() + 8);
    }
}

TEST(UnionFind, BetterThanNothingAtModerateNoise)
{
    // Logical error rate with UF at d=5, p=3% must beat the undecoded
    // baseline by a wide margin (sanity of the full pipeline).
    SurfaceLattice lat(5);
    UnionFindDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.03);
    Rng rng(0x11);
    int fails = 0;
    const int trials = 1000;
    for (int t = 0; t < trials; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        fails += classifyResidual(st, ErrorType::Z).failed();
    }
    EXPECT_LT(fails, trials / 10);
}

} // namespace
} // namespace nisqpp
