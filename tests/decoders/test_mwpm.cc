/** @file Tests for the exact MWPM decoder. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "decoders/mwpm_decoder.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

class MwpmParam : public ::testing::TestWithParam<int>
{
};

TEST_P(MwpmParam, CorrectsAllWeightOneErrors)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
        MwpmDecoder dec(lat, type);
        for (int q = 0; q < lat.numData(); ++q) {
            ErrorState st(lat);
            st.flip(type, q);
            const Correction corr =
                dec.decode(extractSyndrome(st, type));
            corr.applyTo(st, type);
            const FailureReport rep = classifyResidual(st, type);
            EXPECT_FALSE(rep.failed()) << "d=" << d << " q=" << q;
        }
    }
}

TEST_P(MwpmParam, AlwaysClearsSyndromeOnRandomErrors)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    MwpmDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.08);
    Rng rng(0x3133 + d);
    for (int t = 0; t < 200; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        ASSERT_EQ(extractSyndrome(st, ErrorType::Z).weight(), 0)
            << "trial " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, MwpmParam,
                         ::testing::Values(3, 5, 7));

TEST(Mwpm, CorrectsUpToHalfDistance)
{
    // Every error of weight <= (d-1)/2 must be corrected (that is what
    // code distance means for an exact decoder).
    SurfaceLattice lat(5);
    MwpmDecoder dec(lat, ErrorType::Z);
    Rng rng(0x5a5a);
    for (int t = 0; t < 400; ++t) {
        ErrorState st(lat);
        // Random weight-2 patterns.
        const int q1 = static_cast<int>(rng.uniformInt(lat.numData()));
        int q2 = static_cast<int>(rng.uniformInt(lat.numData()));
        if (q1 == q2)
            continue;
        st.flip(ErrorType::Z, q1);
        st.flip(ErrorType::Z, q2);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        const FailureReport rep = classifyResidual(st, ErrorType::Z);
        ASSERT_FALSE(rep.failed()) << "q1=" << q1 << " q2=" << q2;
    }
}

TEST(Mwpm, MatchingIsMinimal)
{
    // Two adjacent hot syndromes: the decoder must pair them directly
    // (weight 1), not via boundaries (weight 1+2).
    SurfaceLattice lat(5);
    MwpmDecoder dec(lat, ErrorType::Z);
    ErrorState st(lat);
    st.flip(ErrorType::Z, lat.dataIndex({2, 4}));
    const Correction corr = dec.decode(extractSyndrome(st, ErrorType::Z));
    ASSERT_EQ(corr.dataFlips.size(), 1u);
    EXPECT_EQ(corr.dataFlips[0], lat.dataIndex({2, 4}));
    ASSERT_EQ(dec.lastMatching().size(), 1u);
    EXPECT_FALSE(dec.lastMatching()[0].toBoundary);
}

TEST(Mwpm, PrefersBoundaryWhenCloser)
{
    SurfaceLattice lat(5);
    MwpmDecoder dec(lat, ErrorType::Z);
    // Two errors at opposite west/east edges: boundary matching (total
    // weight 2) beats pairing across the lattice (weight 4).
    ErrorState st(lat);
    st.flip(ErrorType::Z, lat.dataIndex({0, 0}));
    st.flip(ErrorType::Z, lat.dataIndex({4, 8}));
    const Correction corr = dec.decode(extractSyndrome(st, ErrorType::Z));
    ErrorState resid = st;
    // corr composed onto st:
    ErrorState check(lat);
    for (int f : corr.dataFlips)
        check.flip(ErrorType::Z, f);
    EXPECT_EQ(corr.dataFlips.size(), 2u);
    for (const auto &pair : dec.lastMatching())
        EXPECT_TRUE(pair.toBoundary);
}

TEST(Mwpm, EmptySyndromeEmptyCorrection)
{
    SurfaceLattice lat(3);
    MwpmDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    EXPECT_TRUE(dec.decode(syn).dataFlips.empty());
}

} // namespace
} // namespace nisqpp
