/** @file Tests for the software greedy matching decoder (Section V-B). */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "decoders/greedy_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

class GreedyParam : public ::testing::TestWithParam<int>
{
};

TEST_P(GreedyParam, CorrectsAllWeightOneErrors)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    GreedyDecoder dec(lat, ErrorType::Z);
    for (int q = 0; q < lat.numData(); ++q) {
        ErrorState st(lat);
        st.flip(ErrorType::Z, q);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        EXPECT_FALSE(classifyResidual(st, ErrorType::Z).failed());
    }
}

TEST_P(GreedyParam, AlwaysClearsSyndrome)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    GreedyDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.1);
    Rng rng(0x6eed + d);
    for (int t = 0; t < 200; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        ASSERT_EQ(extractSyndrome(st, ErrorType::Z).weight(), 0);
    }
}

TEST_P(GreedyParam, TwoApproximationOfMwpm)
{
    // Drake-Hougardy: greedy matching weight <= 2x optimal.
    const int d = GetParam();
    SurfaceLattice lat(d);
    GreedyDecoder greedy(lat, ErrorType::Z);
    MwpmDecoder mwpm(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.08);
    Rng rng(0x70 + d);
    for (int t = 0; t < 100; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Syndrome syn = extractSyndrome(st, ErrorType::Z);
        greedy.decode(syn);
        mwpm.decode(syn);
        const MatchingGraph graph(lat, ErrorType::Z, syn);
        const long wg = graph.totalWeight(greedy.lastMatching());
        const long wo = graph.totalWeight(mwpm.lastMatching());
        ASSERT_LE(wg, 2 * wo + 1) << "trial " << t;
        ASSERT_GE(wg, wo);
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, GreedyParam,
                         ::testing::Values(3, 5, 7));

TEST(Greedy, PicksClosestPairFirst)
{
    SurfaceLattice lat(7);
    GreedyDecoder dec(lat, ErrorType::Z);
    // Three collinear syndromes: close pair at distance 1, far one at
    // distance 2; greedy pairs the close two and sends the third to
    // its best alternative.
    Syndrome syn(lat, ErrorType::Z);
    syn.set(lat.ancillaIndex(ErrorType::Z, {6, 5}), true);
    syn.set(lat.ancillaIndex(ErrorType::Z, {6, 7}), true);
    syn.set(lat.ancillaIndex(ErrorType::Z, {6, 11}), true);
    dec.decode(syn);
    bool found_close_pair = false;
    for (const auto &p : dec.lastMatching()) {
        if (!p.toBoundary) {
            const Coord ca = lat.ancillaCoord(ErrorType::Z, p.a);
            const Coord cb = lat.ancillaCoord(ErrorType::Z, p.b);
            EXPECT_EQ(std::abs(ca.col - cb.col), 2);
            found_close_pair = true;
        }
    }
    EXPECT_TRUE(found_close_pair);
}

TEST(Greedy, DeterministicTieBreaking)
{
    SurfaceLattice lat(5);
    GreedyDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    syn.set(0, true);
    syn.set(1, true);
    syn.set(2, true);
    syn.set(3, true);
    const Correction c1 = dec.decode(syn);
    const Correction c2 = dec.decode(syn);
    EXPECT_EQ(c1.dataFlips, c2.dataFlips);
}

} // namespace
} // namespace nisqpp
