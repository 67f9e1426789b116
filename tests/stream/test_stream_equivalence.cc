/**
 * @file Cross-decoder streaming property tests: for identical seeded
 * syndrome streams, the streaming pipeline's per-round corrections are
 * bit-identical to batch Decoder::decode on the same syndromes, for
 * every decoder family at d in {3, 5, 7}; and the streaming failure
 * count reproduces the lifetime-protocol Monte Carlo simulator's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/monte_carlo.hh"
#include "support/one_lifetime.hh"
#include "stream/stream_sim.hh"

namespace nisqpp {
namespace {

std::vector<int>
sorted(std::vector<int> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

TEST(StreamEquivalence, CorrectionsMatchBatchDecode)
{
    constexpr std::size_t kRounds = 200;
    for (const DecoderFamily &family : decoderFamilies()) {
        for (int d : {3, 5, 7}) {
            SCOPED_TRACE(family.name + " d=" + std::to_string(d));
            SurfaceLattice lattice(d);

            StreamConfig config;
            config.lattice = &lattice;
            config.physicalRate = 0.05;
            config.rounds = kRounds;
            config.seed = 0xe0b5ULL + static_cast<std::uint64_t>(d);
            config.latency =
                StreamLatencyModel::forFamily(family.name, d);

            std::vector<Syndrome> syndromes;
            std::vector<std::vector<int>> corrections;
            const StreamObserver observer =
                [&](std::size_t, const Syndrome &syn,
                    const Correction &corr) {
                    syndromes.push_back(syn);
                    corrections.push_back(sorted(corr.dataFlips));
                };

            auto streaming = family.factory(lattice, ErrorType::Z);
            const StreamingResult result =
                runStream(config, *streaming, nullptr, &observer);
            ASSERT_EQ(result.rounds, kRounds);
            ASSERT_EQ(syndromes.size(), kRounds);

            // A fresh decoder instance replays every recorded
            // syndrome through the batch interface.
            auto batch = family.factory(lattice, ErrorType::Z);
            for (std::size_t k = 0; k < kRounds; ++k) {
                const Correction corr = batch->decode(syndromes[k]);
                ASSERT_EQ(sorted(corr.dataFlips), corrections[k])
                    << "round " << k;
            }
        }
    }
}

TEST(StreamEquivalence, FailuresMatchLifetimeSimulator)
{
    // Same seed, same physics order => the streaming pipeline and the
    // lifetime-mode Monte Carlo simulator must count identical
    // failures (the timing overlay never perturbs the physics).
    constexpr std::size_t kRounds = 400;
    constexpr std::uint64_t kSeed = 0x11f3ULL;
    for (const DecoderFamily &family : decoderFamilies()) {
        SCOPED_TRACE(family.name);
        SurfaceLattice lattice(5);

        StreamConfig config;
        config.lattice = &lattice;
        config.physicalRate = 0.05;
        config.rounds = kRounds;
        config.seed = kSeed;
        config.latency = StreamLatencyModel::forFamily(family.name, 5);
        auto streaming = family.factory(lattice, ErrorType::Z);
        const StreamingResult streamed =
            runStream(config, *streaming);

        const NoiseModel model = NoiseModel::dephasing(0.05);
        auto batch = family.factory(lattice, ErrorType::Z);
        LifetimeSimulator sim(lattice, *batch, nullptr);
        sim.setLifetimeMode(true);
        StopRule rule;
        rule.minTrials = rule.maxTrials = kRounds;
        rule.targetFailures = ~std::size_t{0};
        const MonteCarloResult reference =
            runOneLifetime(sim, model, kSeed, rule);

        EXPECT_EQ(streamed.rounds, reference.trials);
        EXPECT_EQ(streamed.failures, reference.failures);
        EXPECT_DOUBLE_EQ(streamed.logicalErrorRate,
                         reference.logicalErrorRate);
    }
}

TEST(StreamEquivalence, SameSeedReproducesTelemetry)
{
    SurfaceLattice lattice(5);
    StreamConfig config;
    config.lattice = &lattice;
    config.rounds = 300;
    config.seed = 99;
    config.latency = StreamLatencyModel::forFamily("union_find", 5);

    const auto factory = unionFindDecoderFactory();
    auto a = factory(lattice, ErrorType::Z);
    auto b = factory(lattice, ErrorType::Z);
    const StreamingResult ra = runStream(config, *a);
    const StreamingResult rb = runStream(config, *b);
    EXPECT_EQ(ra.failures, rb.failures);
    EXPECT_EQ(ra.finalBacklogRounds, rb.finalBacklogRounds);
    EXPECT_EQ(ra.maxQueueDepth, rb.maxQueueDepth);
    EXPECT_DOUBLE_EQ(ra.serviceNs.mean(), rb.serviceNs.mean());
    ASSERT_EQ(ra.trajectory.size(), rb.trajectory.size());
    for (std::size_t i = 0; i < ra.trajectory.size(); ++i) {
        EXPECT_EQ(ra.trajectory[i].round, rb.trajectory[i].round);
        EXPECT_EQ(ra.trajectory[i].backlogRounds,
                  rb.trajectory[i].backlogRounds);
    }
}

} // namespace
} // namespace nisqpp
