/** @file Faulty-measurement windowed Monte Carlo protocol: batch-lane
 * equivalence, sub-threshold distance scaling, and mode guards. */

#include <gtest/gtest.h>

#include <memory>

#include "core/mesh_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "noise/noise_model.hh"
#include "sim/monte_carlo.hh"

#include "aggregates.hh"

namespace nisqpp {
namespace {

/** A rule running exactly @p trials trials (no early stop). */
StopRule
fixedTrials(std::size_t trials)
{
    return StopRule{trials, trials, ~std::size_t{0}};
}

MonteCarloResult
runWindowed(const SurfaceLattice &lat, const NoiseModel &model,
            Decoder &zDec, Decoder *xDec, int windowRounds,
            std::size_t lanes, const StopRule &rule, std::uint64_t seed)
{
    LifetimeSimulator sim(lat, model, zDec, xDec, seed);
    sim.setMeasurementWindow(windowRounds);
    sim.setBatchLanes(lanes);
    return sim.run(rule);
}

/**
 * Run the windowed protocol one trial at a time and @p lanes trials
 * per group, each with fresh DecoderT decoders (an X decoder too when
 * @p depolarizing), and require identical aggregates and identical
 * exported decoder counters. Returns the one-at-a-time result.
 */
template <typename DecoderT>
MonteCarloResult
expectBatchMatchesScalar(const SurfaceLattice &lat,
                         const NoiseModel &model, bool depolarizing,
                         int windowRounds, std::size_t lanes,
                         const StopRule &rule, std::uint64_t seed)
{
    DecoderT scalarZ(lat, ErrorType::Z), scalarX(lat, ErrorType::X);
    DecoderT batchZ(lat, ErrorType::Z), batchX(lat, ErrorType::X);
    const MonteCarloResult scalar =
        runWindowed(lat, model, scalarZ, depolarizing ? &scalarX : nullptr,
                    windowRounds, 1, rule, seed);
    const MonteCarloResult batched =
        runWindowed(lat, model, batchZ, depolarizing ? &batchX : nullptr,
                    windowRounds, lanes, rule, seed);
    expectSameAggregates(scalar, batched);
    EXPECT_EQ(decoderCounters(batchZ), decoderCounters(scalarZ));
    EXPECT_EQ(decoderCounters(batchX), decoderCounters(scalarX));
    EXPECT_FALSE(decoderCounters(batchZ).empty());
    EXPECT_EQ(decoderCounters(batchX).empty(), !depolarizing);
    // Windowed runs record no mesh cycle telemetry.
    EXPECT_EQ(scalar.cycles.count(), 0u);
    EXPECT_GT(scalar.trials, 0u);
    return scalar;
}

TEST(WindowedSim, BatchLanesMatchScalarDephasing)
{
    SurfaceLattice lat(3);
    expectBatchMatchesScalar<UnionFindDecoder>(
        lat, NoiseModel::dephasing(0.03, 0.03), false, 3, 7,
        fixedTrials(400), 0xabc);
}

TEST(WindowedSim, BatchLanesMatchScalarDepolarizing)
{
    // Depolarizing + q > 0 exercises both families' windows.
    SurfaceLattice lat(3);
    expectBatchMatchesScalar<MwpmDecoder>(
        lat, NoiseModel::depolarizing(0.03, 0.02), true, 3, 9,
        fixedTrials(250), 0x77);
}

TEST(WindowedSim, UnionFindDepolarizingBatchMatchesScalar)
{
    // Union-find through the batched spacetime path.
    SurfaceLattice lat(5);
    expectBatchMatchesScalar<UnionFindDecoder>(
        lat, NoiseModel::depolarizing(0.03, 0.02), true, 5, 64,
        fixedTrials(300), 0xdeb0);
}

TEST(WindowedSim, EarlyStopMidGroupMatchesScalar)
{
    // The stop rule trips inside a group: the surplus lanes are
    // dropped, so the aggregates match the one-at-a-time run exactly.
    // Their windows were still decoded, so the batched decoder's
    // counters run on to the end of the last group. Only a decoder
    // with a lane engine is handed groups, so this runs the mesh.
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.06, 0.06);
    const StopRule rule{10, 4000, 25};
    const std::size_t lanes = 7;
    MeshDecoder scalarDec(lat, ErrorType::Z);
    MeshDecoder batchDec(lat, ErrorType::Z);
    const MonteCarloResult scalar =
        runWindowed(lat, model, scalarDec, nullptr, 3, 1, rule, 0x5709);
    const MonteCarloResult batched = runWindowed(
        lat, model, batchDec, nullptr, 3, lanes, rule, 0x5709);
    ASSERT_GE(scalar.failures, 25u);
    ASSERT_LT(scalar.trials, 4000u);
    ASSERT_NE(scalar.trials % lanes, 0u) << "stop must land mid-group";
    expectSameAggregates(scalar, batched);

    obs::MetricSet sm, bm;
    scalarDec.exportMetrics(sm);
    batchDec.exportMetrics(bm);
    EXPECT_EQ(sm.value("decoder.mesh.decodes"), scalar.trials);
    EXPECT_EQ(bm.value("decoder.mesh.decodes"),
              (scalar.trials + lanes - 1) / lanes * lanes);
}

/**
 * The acceptance property of the faulty-measurement regime: below the
 * phenomenological threshold (~3% for p = q), windowed decoding over
 * d-round windows suppresses the logical error rate with distance for
 * both spacetime decoders. Seeds are fixed, so this is deterministic.
 */
template <typename DecoderT>
void
expectDistanceOrdering(double p, std::size_t trials)
{
    double last = 1.0;
    for (int d : {3, 5, 9}) {
        SurfaceLattice lat(d);
        const NoiseModel model = NoiseModel::dephasing(p, p);
        DecoderT dec(lat, ErrorType::Z);
        const MonteCarloResult r = runWindowed(
            lat, model, dec, nullptr, d, 1, fixedTrials(trials),
            0x5eed + d);
        EXPECT_LT(r.logicalErrorRate, last)
            << "PL failed to drop from the previous distance at d="
            << d;
        last = r.logicalErrorRate;
    }
}

TEST(WindowedSim, UnionFindSuppressesWithDistance)
{
    expectDistanceOrdering<UnionFindDecoder>(0.02, 1500);
}

TEST(WindowedSim, MwpmSuppressesWithDistance)
{
    expectDistanceOrdering<MwpmDecoder>(0.02, 700);
}

TEST(WindowedSim, PerfectMeasurementWindowStillCorrects)
{
    // q = 0 windows degenerate gracefully: every round repeats the
    // true syndrome and PL stays comparable to single-round decoding.
    SurfaceLattice lat(5);
    const NoiseModel model = NoiseModel::dephasing(0.02, 0.0);
    UnionFindDecoder dec(lat, ErrorType::Z);
    const MonteCarloResult r =
        runWindowed(lat, model, dec, nullptr, 5, 1, fixedTrials(500),
                    0x9);
    // A 5-round window accumulates ~5x the single-round error mass;
    // sub-threshold it must still decode nearly all windows.
    EXPECT_LT(r.logicalErrorRate, 0.2);
}

TEST(WindowedSimDeath, MeasurementNoiseWithoutWindowPanics)
{
    // q > 0 without a window would silently simulate q = 0 (the
    // single-round protocols never corrupt measurements).
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.01, 0.01);
    UnionFindDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 1);
    StopRule rule{10, 10, ~std::size_t{0}};
    EXPECT_DEATH(sim.run(rule), "requires a decode window");
}

TEST(WindowedSimDeath, LifetimeModeIsMutuallyExclusive)
{
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.01, 0.01);
    UnionFindDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 1);
    sim.setMeasurementWindow(3);
    sim.setLifetimeMode(true);
    StopRule rule{10, 10, ~std::size_t{0}};
    EXPECT_DEATH(sim.run(rule), "mutually exclusive");
}

} // namespace
} // namespace nisqpp
