/**
 * @file Property tests of the final-design mesh decoder on randomized
 * error patterns across lattice sizes.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/mesh_decoder.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

class MeshProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MeshProperty, CorrectsAllWeightOneErrors)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
        MeshDecoder dec(lat, type);
        for (int q = 0; q < lat.numData(); ++q) {
            ErrorState st(lat);
            st.flip(type, q);
            const Correction corr =
                dec.decode(extractSyndrome(st, type));
            corr.applyTo(st, type);
            const FailureReport rep = classifyResidual(st, type);
            ASSERT_FALSE(rep.failed())
                << "d=" << d << " type="
                << (type == ErrorType::Z ? "Z" : "X") << " q=" << q;
        }
    }
}

TEST_P(MeshProperty, RandomErrorsNeverStall)
{
    const int d = GetParam();
    SurfaceLattice lat(d);
    MeshDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.06);
    Rng rng(0x77aa + d);
    for (int t = 0; t < 300; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        dec.decode(extractSyndrome(st, ErrorType::Z));
        ASSERT_FALSE(dec.lastStats().timedOut);
        ASSERT_EQ(dec.lastStats().remainingHot, 0) << "trial " << t;
    }
}

TEST_P(MeshProperty, SyndromeAlmostAlwaysCleared)
{
    // The final design should return to the code space in essentially
    // every round; allow a small tolerance for rare congested races
    // (which the Monte Carlo counts as failures).
    const int d = GetParam();
    SurfaceLattice lat(d);
    MeshDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.05);
    Rng rng(0x88bb + d);
    const int trials = 500;
    int residual = 0;
    for (int t = 0; t < trials; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        residual += extractSyndrome(st, ErrorType::Z).weight() != 0;
    }
    EXPECT_LE(residual, trials / 50) << "residual rounds: " << residual;
}

TEST_P(MeshProperty, CyclesBoundedLinearInDistance)
{
    // Table IV: maximum cycles to solution scale linearly with d.
    const int d = GetParam();
    SurfaceLattice lat(d);
    MeshDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.08);
    Rng rng(0x99cc + d);
    int max_cycles = 0;
    for (int t = 0; t < 300; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        dec.decode(extractSyndrome(st, ErrorType::Z));
        max_cycles = std::max(max_cycles, dec.lastStats().cycles);
    }
    EXPECT_LE(max_cycles, 20 * (2 * d - 1) + 40);
    EXPECT_GT(max_cycles, 0);
}

TEST_P(MeshProperty, PairingsMatchSyndromeWeight)
{
    // Every decode clears each hot module exactly once: pairings equal
    // the syndrome weight when nothing stalls.
    const int d = GetParam();
    SurfaceLattice lat(d);
    MeshDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.04);
    Rng rng(0xaadd + d);
    for (int t = 0; t < 200; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Syndrome syn = extractSyndrome(st, ErrorType::Z);
        dec.decode(syn);
        ASSERT_EQ(dec.lastStats().pairings +
                      dec.lastStats().remainingHot,
                  syn.weight());
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, MeshProperty,
                         ::testing::Values(3, 5, 7, 9, 11));

TEST(MeshProperty, DepolarizingBothFamilies)
{
    // Under depolarizing noise both mesh instances (Z and X families)
    // operate symmetrically.
    SurfaceLattice lat(5);
    MeshDecoder dec_z(lat, ErrorType::Z);
    MeshDecoder dec_x(lat, ErrorType::X);
    const NoiseModel model = NoiseModel::depolarizing(0.05);
    Rng rng(0xbbee);
    int fails = 0;
    for (int t = 0; t < 300; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        dec_z.decode(extractSyndrome(st, ErrorType::Z))
            .applyTo(st, ErrorType::Z);
        dec_x.decode(extractSyndrome(st, ErrorType::X))
            .applyTo(st, ErrorType::X);
        fails += classifyResidual(st, ErrorType::Z).failed() ||
                 classifyResidual(st, ErrorType::X).failed();
    }
    EXPECT_LT(fails, 100);
}

} // namespace
} // namespace nisqpp
