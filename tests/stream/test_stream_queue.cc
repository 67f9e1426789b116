/**
 * @file Unit tests of the streaming pipeline's building blocks: the
 * consumer queue's exact accounting on a closed-form run, the
 * percentile telemetry and the deterministic latency models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stream/latency_model.hh"
#include "stream/stream_sim.hh"
#include "stream/telemetry.hh"

#include "backlog/distance_model.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace {

TEST(StreamConsumer, ConstantTooSlowDecoderIsExact)
{
    // An 800 ns decode of every 400 ns round: round j arrives at 400j
    // and completes at 800(j + 1), so round k sees floor(k/2) rounds
    // completed and ceil(k/2) pending before it joins. The 64-slot
    // bound is first met by round 127; every later round overflows.
    SurfaceLattice lattice(3);
    StreamConfig config;
    config.lattice = &lattice;
    config.syndromeCycleNs = 400.0;
    config.rounds = 310;
    config.latency = StreamLatencyModel::constant(800.0);
    auto decoder = unionFindDecoderFactory()(lattice, ErrorType::Z);
    const StreamingResult r = runStream(config, *decoder);

    const std::size_t n = config.rounds;
    auto backlogAt = [](std::size_t k) { return k + 1 - k / 2; };
    EXPECT_EQ(r.rounds, n);
    EXPECT_EQ(r.overflowRounds, n - 127);
    EXPECT_EQ(r.maxQueueDepth, kStreamQueueCapacity);
    EXPECT_EQ(r.maxBacklogRounds, backlogAt(n - 1));
    EXPECT_EQ(r.finalBacklogRounds, n - n / 2);
    // The last round completes at 800n, 400n after production ends.
    EXPECT_EQ(r.drainNs, 400.0 * static_cast<double>(n));
    // Sojourns 800 + 400j form an arithmetic series: exact in doubles.
    EXPECT_EQ(r.sojournNs.count(), n);
    EXPECT_EQ(r.sojournNs.mean(),
              800.0 + 200.0 * static_cast<double>(n - 1));
    EXPECT_EQ(r.sojournNs.max(),
              800.0 + 400.0 * static_cast<double>(n - 1));
    EXPECT_EQ(r.fEmpirical, 2.0);
    EXPECT_TRUE(r.clockMonotone);

    // One sample every n / 31 rounds plus the last round.
    const std::size_t stride = n / 31;
    std::vector<BacklogSample> expected;
    for (std::size_t k = 0; k < n; ++k)
        if (k % stride == 0 || k + 1 == n)
            expected.push_back(
                {k, backlogAt(k),
                 std::min(backlogAt(k), kStreamQueueCapacity)});
    ASSERT_EQ(r.trajectory.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.trajectory[i].round, expected[i].round);
        EXPECT_EQ(r.trajectory[i].backlogRounds,
                  expected[i].backlogRounds)
            << "round " << expected[i].round;
        EXPECT_EQ(r.trajectory[i].queueDepth, expected[i].queueDepth)
            << "round " << expected[i].round;
    }
}

TEST(StreamTelemetry, PercentilesFromExactBins)
{
    Histogram hist(100);
    // 100 observations of value i for i in [0, 100).
    for (std::size_t i = 0; i < 100; ++i)
        hist.add(i);
    EXPECT_DOUBLE_EQ(percentileFromHistogram(hist, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentileFromHistogram(hist, 0.50), 49.0);
    EXPECT_DOUBLE_EQ(percentileFromHistogram(hist, 0.90), 89.0);
    EXPECT_DOUBLE_EQ(percentileFromHistogram(hist, 1.0), 99.0);
}

TEST(StreamTelemetry, EmptyHistogramGivesZero)
{
    Histogram hist(16);
    EXPECT_DOUBLE_EQ(percentileFromHistogram(hist, 0.5), 0.0);
}

TEST(StreamLatency, ConstantAndPerHotTerms)
{
    const StreamLatencyModel m = StreamLatencyModel::constant(500.0);
    EXPECT_DOUBLE_EQ(m.decodeNs(nullptr), 500.0);
}

TEST(StreamLatency, FamilyPresetsMatchDecoderProfiles)
{
    for (int d : {3, 5, 7, 9}) {
        EXPECT_DOUBLE_EQ(
            StreamLatencyModel::forFamily("mwpm", d).decodeNs(nullptr),
            DecoderProfile::mwpm().decodeNs(d));
        EXPECT_DOUBLE_EQ(StreamLatencyModel::forFamily("union_find", d)
                             .decodeNs(nullptr),
                         DecoderProfile::unionFind().decodeNs(d));
    }
    EXPECT_TRUE(
        StreamLatencyModel::forFamily("sfq_mesh", 9).meshCycles);
}

} // namespace
} // namespace nisqpp
