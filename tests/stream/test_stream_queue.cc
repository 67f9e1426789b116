/**
 * @file Unit tests of the streaming pipeline's building blocks: the
 * bounded round queue (FIFO across ring + spill), the percentile
 * telemetry and the deterministic latency models.
 */

#include <gtest/gtest.h>

#include "stream/latency_model.hh"
#include "stream/stream_queue.hh"
#include "stream/telemetry.hh"

#include "backlog/distance_model.hh"

namespace nisqpp {
namespace {

TEST(StreamQueue, FifoWithinCapacity)
{
    StreamQueue q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 4u);
    for (std::size_t k = 0; k < 3; ++k)
        q.push({k, static_cast<double>(k), 1.0});
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.fastDepth(), 3u);
    EXPECT_EQ(q.overflowCount(), 0u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(q.front().round, k);
        q.pop();
    }
    EXPECT_TRUE(q.empty());
}

TEST(StreamQueue, OverflowSpillsAndPreservesGlobalOrder)
{
    StreamQueue q(2);
    for (std::size_t k = 0; k < 7; ++k) {
        q.push({k, static_cast<double>(k), 1.0});
        EXPECT_LE(q.fastDepth(), 2u);
    }
    EXPECT_EQ(q.depth(), 7u);
    EXPECT_EQ(q.spillDepth(), 5u);
    EXPECT_EQ(q.overflowCount(), 5u);
    for (std::size_t k = 0; k < 7; ++k) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.front().round, k);
        q.pop();
    }
    EXPECT_TRUE(q.empty());
    // Overflow is a lifetime counter, not a level.
    EXPECT_EQ(q.overflowCount(), 5u);
}

TEST(StreamQueue, InterleavedPushPopPromotesSpill)
{
    StreamQueue q(2);
    std::size_t next = 0, expect = 0;
    for (int step = 0; step < 50; ++step) {
        q.push({next++, 0.0, 1.0});
        q.push({next++, 0.0, 1.0});
        ASSERT_EQ(q.front().round, expect);
        q.pop();
        ++expect;
    }
    while (!q.empty()) {
        ASSERT_EQ(q.front().round, expect++);
        q.pop();
    }
    EXPECT_EQ(expect, next);
}

TEST(StreamQueue, SpillCompactionPreservesFifo)
{
    // Drive spillHead_ past the 1024-entry reclaim trigger: with 4000
    // spilled rounds, the consumed-prefix erase fires mid-drain (once
    // the consumed prefix dominates the buffer) and must not disturb
    // global round order or the depth/overflow accounting.
    StreamQueue q(2);
    const std::size_t total = 4002;
    for (std::size_t k = 0; k < total; ++k)
        q.push({k, static_cast<double>(k), 1.0});
    EXPECT_EQ(q.spillDepth(), total - 2);
    EXPECT_EQ(q.overflowCount(), total - 2);
    for (std::size_t k = 0; k < total; ++k) {
        ASSERT_FALSE(q.empty());
        ASSERT_EQ(q.front().round, k);
        ASSERT_DOUBLE_EQ(q.front().arriveNs, static_cast<double>(k));
        ASSERT_EQ(q.depth(), total - k);
        q.pop();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.overflowCount(), total - 2);
}

TEST(StreamQueue, SpillCompactionSurvivesInterleavedTraffic)
{
    // Producer outruns the consumer 2:1 so the spill ledger keeps
    // growing while pops keep consuming its prefix; the reclaim branch
    // fires repeatedly at different ring offsets and FIFO must hold
    // through every firing and through the final drain.
    StreamQueue q(3);
    std::size_t next = 0, expect = 0;
    for (int step = 0; step < 3000; ++step) {
        q.push({next++, 0.0, 1.0});
        q.push({next++, 0.0, 1.0});
        ASSERT_EQ(q.front().round, expect);
        q.pop();
        ++expect;
    }
    while (!q.empty()) {
        ASSERT_EQ(q.front().round, expect++);
        q.pop();
    }
    EXPECT_EQ(expect, next);
    EXPECT_EQ(q.depth(), 0u);
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
