/** @file Statistical tests for the error channels. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "noise/noise_model.hh"

namespace nisqpp {
namespace {

TEST(Dephasing, OnlyZErrors)
{
    SurfaceLattice lat(5);
    const NoiseModel model = NoiseModel::dephasing(0.5);
    Rng rng(3);
    ErrorState st(lat);
    for (int i = 0; i < 20; ++i)
        model.sample(rng, st);
    EXPECT_EQ(st.weight(ErrorType::X), 0);
}

TEST(Dephasing, RateMatches)
{
    SurfaceLattice lat(5);
    const double p = 0.1;
    const NoiseModel model = NoiseModel::dephasing(p);
    Rng rng(5);
    int flips = 0;
    const int rounds = 2000;
    for (int i = 0; i < rounds; ++i) {
        ErrorState st(lat);
        model.sample(rng, st);
        flips += st.weight(ErrorType::Z);
    }
    const double rate =
        static_cast<double>(flips) / (rounds * lat.numData());
    EXPECT_NEAR(rate, p, 0.01);
}

TEST(Depolarizing, AllPaulisAppear)
{
    SurfaceLattice lat(5);
    const NoiseModel model = NoiseModel::depolarizing(0.5);
    Rng rng(7);
    int nx = 0, ny = 0, nz = 0;
    for (int i = 0; i < 200; ++i) {
        ErrorState st(lat);
        model.sample(rng, st);
        for (int q = 0; q < lat.numData(); ++q) {
            switch (st.at(q)) {
              case Pauli::X: ++nx; break;
              case Pauli::Y: ++ny; break;
              case Pauli::Z: ++nz; break;
              default: break;
            }
        }
    }
    EXPECT_GT(nx, 0);
    EXPECT_GT(ny, 0);
    EXPECT_GT(nz, 0);
    // Roughly equal proportions (p/3 each).
    const double total = nx + ny + nz;
    EXPECT_NEAR(nx / total, 1.0 / 3, 0.05);
    EXPECT_NEAR(ny / total, 1.0 / 3, 0.05);
    EXPECT_NEAR(nz / total, 1.0 / 3, 0.05);
}

TEST(Depolarizing, ZeroRateIsClean)
{
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::depolarizing(0.0);
    Rng rng(1);
    ErrorState st(lat);
    model.sample(rng, st);
    EXPECT_EQ(st.weight(), 0);
}

TEST(ErrorModel, RejectsBadRates)
{
    EXPECT_DEATH(NoiseModel::dephasing(-0.1), "p out of");
    EXPECT_DEATH(NoiseModel::depolarizing(1.5), "p out of");
}

} // namespace
} // namespace nisqpp
