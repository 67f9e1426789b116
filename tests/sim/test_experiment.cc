/** @file Integration tests for the experiment sweep driver. */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment.hh"

namespace nisqpp {
namespace {

TEST(Experiment, LogSpacedGrid)
{
    const auto ps = SweepConfig::logSpaced(0.01, 0.1, 5);
    ASSERT_EQ(ps.size(), 5u);
    EXPECT_NEAR(ps.front(), 0.01, 1e-12);
    EXPECT_NEAR(ps.back(), 0.1, 1e-12);
    for (std::size_t i = 1; i < ps.size(); ++i)
        EXPECT_NEAR(ps[i] / ps[i - 1], ps[1] / ps[0], 1e-9);
}

TEST(Experiment, SweepProducesCurves)
{
    SweepConfig config;
    config.distances = {3, 5};
    config.physicalRates = {0.02, 0.06};
    config.stopRule = {300, 300, 1u << 30};
    const SweepResult result = Engine{EngineOptions{}}.runSweep(
        config, meshDecoderFactory(MeshConfig::finalDesign()));
    ASSERT_EQ(result.curves.size(), 2u);
    EXPECT_EQ(result.curves[0].distance, 3);
    EXPECT_EQ(result.curves[1].distance, 5);
    ASSERT_EQ(result.curves[0].p.size(), 2u);
    // Higher physical rate -> higher logical rate.
    for (const auto &curve : result.curves)
        EXPECT_LE(curve.pl[0], curve.pl[1] + 0.05);
}

TEST(Experiment, SweepIsSeedDeterministic)
{
    SweepConfig config;
    config.distances = {3};
    config.physicalRates = {0.05};
    config.stopRule = {200, 200, 1u << 30};
    const auto factory = mwpmDecoderFactory();
    Engine engine{EngineOptions{}};
    const auto r1 = engine.runSweep(config, factory);
    const auto r2 = engine.runSweep(config, factory);
    EXPECT_EQ(r1.curves[0].pl, r2.curves[0].pl);
}

TEST(Experiment, AllFactoriesProduceWorkingDecoders)
{
    SurfaceLattice lat(3);
    for (const auto &factory :
         {meshDecoderFactory(MeshConfig::finalDesign()),
          mwpmDecoderFactory(), unionFindDecoderFactory(),
          greedyDecoderFactory()}) {
        auto dec = factory(lat, ErrorType::Z);
        ASSERT_NE(dec, nullptr);
        ErrorState st(lat);
        st.flip(ErrorType::Z, 0);
        const Correction corr =
            dec->decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        EXPECT_EQ(extractSyndrome(st, ErrorType::Z).weight(), 0)
            << dec->name();
    }
}

TEST(Experiment, FitSweepReturnsPerDistanceFits)
{
    // Synthetic sweep with an exact scaling law.
    SweepResult result;
    for (int d : {3, 5}) {
        ErrorRateCurve curve;
        curve.distance = d;
        for (double p : {0.01, 0.02, 0.03}) {
            curve.p.push_back(p);
            curve.pl.push_back(0.03 *
                               std::pow(p / 0.05, 0.5 * d));
        }
        result.curves.push_back(curve);
    }
    const auto fits = fitSweep(result, 0.05, 0.04);
    ASSERT_EQ(fits.size(), 2u);
    EXPECT_NEAR(fits[0].c2, 0.5, 1e-9);
    EXPECT_NEAR(fits[1].c2, 0.5, 1e-9);
}

} // namespace
} // namespace nisqpp
