/**
 * @file Backlog model conformance: the streaming pipeline's measured
 * backlog growth rate must match the closed-form predictions the
 * src/backlog model (and paper Section III) are built on — growth of
 * 1 - 1/f rounds per round in the decoder-too-slow regime, and a
 * queue that drains to zero in the fast regime.
 */

#include <gtest/gtest.h>

#include "backlog/backlog_sim.hh"
#include "backlog/distance_model.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"

namespace nisqpp {
namespace {

StreamConfig
baseConfig(const SurfaceLattice &lattice, std::size_t rounds)
{
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.05;
    config.syndromeCycleNs = 400.0;
    config.rounds = rounds;
    config.seed = 0xc0f0ULL;
    return config;
}

TEST(BacklogConformance, TooSlowDecoderGrowsAtClosedFormRate)
{
    SurfaceLattice lattice(5);
    StreamConfig config = baseConfig(lattice, 3000);
    // The Fig. 11 union-find profile: 850 ns per round against the
    // 400 ns syndrome cycle, so f = 2.125.
    config.latency = StreamLatencyModel::forFamily("union_find", 5);
    const double f =
        DecoderProfile::unionFind().decodeNs(5) / 400.0;

    const auto factory = unionFindDecoderFactory();
    auto decoder = factory(lattice, ErrorType::Z);
    const StreamingResult result = runStream(config, *decoder);

    // Constant service time: the measured ratio is exact.
    EXPECT_DOUBLE_EQ(result.fEmpirical, f);

    // Growth per produced round matches 1 - 1/f up to the +-1 round
    // discretization of a finite horizon.
    const double predicted = backlogGrowthPerRound(f);
    EXPECT_GT(predicted, 0.0);
    EXPECT_NEAR(result.backlogGrowthPerRound, predicted, 0.01);

    // The fast ring saturates and spills; backlog never drains during
    // production.
    EXPECT_EQ(result.maxQueueDepth, kStreamQueueCapacity);
    EXPECT_GT(result.overflowRounds, 0u);
    EXPECT_GT(result.finalBacklogRounds,
              static_cast<std::size_t>(0.9 * predicted * 3000));

    // Trajectory is monotonically non-decreasing in the slow regime.
    for (std::size_t i = 1; i < result.trajectory.size(); ++i)
        EXPECT_GE(result.trajectory[i].backlogRounds,
                  result.trajectory[i - 1].backlogRounds);
}

TEST(BacklogConformance, FastDecoderDrainsToZero)
{
    SurfaceLattice lattice(5);
    StreamConfig config = baseConfig(lattice, 2000);
    config.latency = StreamLatencyModel::forFamily("sfq_mesh", 5);

    const auto factory =
        meshDecoderFactory(MeshConfig::finalDesign());
    auto decoder = factory(lattice, ErrorType::Z);
    const StreamingResult result = runStream(config, *decoder);

    // The mesh decodes well inside one syndrome cycle (Table IV), so
    // every round retires before the next arrives.
    EXPECT_LT(result.fEmpirical, 1.0);
    EXPECT_DOUBLE_EQ(result.backlogGrowthPerRound, 0.0);
    EXPECT_EQ(result.finalBacklogRounds, 0u);
    EXPECT_EQ(result.overflowRounds, 0u);
    EXPECT_LE(result.maxQueueDepth, 2u);
    EXPECT_LT(result.drainNs, config.syndromeCycleNs);
    EXPECT_DOUBLE_EQ(
        backlogGrowthPerRound(result.fEmpirical), 0.0);
}

TEST(BacklogConformance, MarginalRatioNeitherGrowsNorStarves)
{
    // f exactly 1: the queue walks between 1 and 2 but the closed
    // form predicts zero asymptotic growth.
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, 2000);
    config.latency = StreamLatencyModel::constant(400.0);

    const auto factory = greedyDecoderFactory();
    auto decoder = factory(lattice, ErrorType::Z);
    const StreamingResult result = runStream(config, *decoder);

    EXPECT_DOUBLE_EQ(result.fEmpirical, 1.0);
    EXPECT_DOUBLE_EQ(backlogGrowthPerRound(1.0), 0.0);
    // At f = 1 each round finishes exactly when the next arrives: the
    // backlog stays at the single in-service round.
    EXPECT_LE(result.maxBacklogRounds, 2u);
    EXPECT_LE(result.finalBacklogRounds, 1u);
}

TEST(BacklogConformance, ClosedFormGrowthProperties)
{
    EXPECT_DOUBLE_EQ(backlogGrowthPerRound(0.25), 0.0);
    EXPECT_DOUBLE_EQ(backlogGrowthPerRound(1.0), 0.0);
    EXPECT_DOUBLE_EQ(backlogGrowthPerRound(2.0), 0.5);
    EXPECT_DOUBLE_EQ(backlogGrowthPerRound(4.0), 0.75);
    EXPECT_NEAR(backlogGrowthPerRound(2.125), 1.0 - 1.0 / 2.125,
                1e-12);
}

} // namespace
} // namespace nisqpp
