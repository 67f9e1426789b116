/**
 * @file
 * Batched streaming consumer pinned byte-identical to the scalar
 * consumer: for every eligible decoder family, any batch lane count,
 * any fault/recovery mix and any seed, runStream with batchLanes > 1
 * must reproduce the scalar run's failures, telemetry, metrics and
 * per-round observer stream exactly — while actually draining rounds
 * through decodeBatch (engagement is asserted, not assumed).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "faults/fault_plan.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"
#include "surface/lattice.hh"

namespace nisqpp {
namespace {

constexpr std::size_t kRounds = 300;

/** Everything one run emits, flattened for whole-run equality. */
struct RunRecord
{
    StreamingResult result;
    std::vector<std::size_t> observedRounds;
    std::vector<std::vector<bool>> observedSyndromes;
    std::vector<std::vector<int>> observedFlips;
    std::map<std::string, std::vector<std::uint64_t>> metrics;
};

RunRecord
record(const StreamConfig &config, Decoder &decoder)
{
    RunRecord rec;
    const StreamObserver observer = [&rec](std::size_t round,
                                           const Syndrome &syn,
                                           const Correction &corr) {
        rec.observedRounds.push_back(round);
        std::vector<bool> bits(static_cast<std::size_t>(syn.size()));
        for (int a = 0; a < syn.size(); ++a)
            bits[static_cast<std::size_t>(a)] = syn.hot(a);
        rec.observedSyndromes.push_back(std::move(bits));
        rec.observedFlips.push_back(corr.dataFlips);
    };
    rec.result = runStream(config, decoder, nullptr, &observer);
    rec.result.metrics.forEachScalar(
        [&rec](const std::string &name, bool, std::uint64_t value) {
            rec.metrics["scalar." + name] = {value};
        });
    rec.result.metrics.forEachHistogram(
        [&rec](const std::string &name,
               const obs::MetricSet::HistogramEntry &e) {
            std::vector<std::uint64_t> v = {e.sum, e.hist.overflow()};
            for (std::size_t i = 0; i < e.hist.numBins(); ++i)
                v.push_back(e.hist.bin(i));
            rec.metrics["hist." + name] = v;
        });
    return rec;
}

/** Assert batched @p got equals scalar @p want field for field. */
void
expectSameRun(const RunRecord &got, const RunRecord &want,
              const std::string &label)
{
    const StreamingResult &g = got.result;
    const StreamingResult &w = want.result;
    EXPECT_EQ(g.rounds, w.rounds) << label;
    EXPECT_EQ(g.failures, w.failures) << label;
    EXPECT_EQ(g.logicalErrorRate, w.logicalErrorRate) << label;
    EXPECT_EQ(g.serviceNs.count(), w.serviceNs.count()) << label;
    EXPECT_EQ(g.serviceNs.mean(), w.serviceNs.mean()) << label;
    EXPECT_EQ(g.serviceNs.max(), w.serviceNs.max()) << label;
    EXPECT_EQ(g.sojournNs.count(), w.sojournNs.count()) << label;
    EXPECT_EQ(g.sojournNs.mean(), w.sojournNs.mean()) << label;
    EXPECT_EQ(g.servicePercentiles.p50, w.servicePercentiles.p50)
        << label;
    EXPECT_EQ(g.servicePercentiles.p99, w.servicePercentiles.p99)
        << label;
    EXPECT_EQ(g.maxQueueDepth, w.maxQueueDepth) << label;
    EXPECT_EQ(g.maxBacklogRounds, w.maxBacklogRounds) << label;
    EXPECT_EQ(g.overflowRounds, w.overflowRounds) << label;
    EXPECT_EQ(g.finalBacklogRounds, w.finalBacklogRounds) << label;
    EXPECT_EQ(g.drainNs, w.drainNs) << label;
    EXPECT_EQ(g.fEmpirical, w.fEmpirical) << label;
    ASSERT_EQ(g.trajectory.size(), w.trajectory.size()) << label;
    for (std::size_t i = 0; i < g.trajectory.size(); ++i) {
        EXPECT_EQ(g.trajectory[i].round, w.trajectory[i].round);
        EXPECT_EQ(g.trajectory[i].backlogRounds,
                  w.trajectory[i].backlogRounds);
        EXPECT_EQ(g.trajectory[i].queueDepth,
                  w.trajectory[i].queueDepth);
    }
    const faults::FaultCounts &gf = g.faults;
    const faults::FaultCounts &wf = w.faults;
    EXPECT_EQ(gf.decodedRounds, wf.decodedRounds) << label;
    EXPECT_EQ(gf.carriedForward, wf.carriedForward) << label;
    EXPECT_EQ(gf.lostRounds, wf.lostRounds) << label;
    EXPECT_EQ(gf.corruptDecodes, wf.corruptDecodes) << label;
    EXPECT_EQ(gf.deadlineClamps, wf.deadlineClamps) << label;
    EXPECT_EQ(gf.dedupRounds, wf.dedupRounds) << label;
    EXPECT_TRUE(g.clockMonotone) << label;

    EXPECT_EQ(got.observedRounds, want.observedRounds) << label;
    EXPECT_EQ(got.observedSyndromes, want.observedSyndromes) << label;
    EXPECT_EQ(got.observedFlips, want.observedFlips) << label;
    EXPECT_EQ(got.metrics, want.metrics) << label;
}

/**
 * Union-find instrumented to prove the batched consumer engaged: it
 * counts the decodeBatch calls carrying more than one round (scalar
 * decodes are batches of one).
 */
class CountingUnionFind : public UnionFindDecoder
{
  public:
    using UnionFindDecoder::UnionFindDecoder;
    using UnionFindDecoder::decodeBatch;

    void
    decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                Correction *out, TrialWorkspace &ws) override
    {
        if (count > 1)
            ++batchCalls;
        maxGroup = std::max(maxGroup, count);
        UnionFindDecoder::decodeBatch(syndromes, count, out, ws);
    }

    std::size_t batchCalls = 0;
    std::size_t maxGroup = 0;
};

TEST(StreamBatch, ConsumerMatchesScalarForEveryEligibleFamily)
{
    for (const DecoderFamily &family : decoderFamilies()) {
        for (int d : {3, 5}) {
            SurfaceLattice lattice(d);
            StreamConfig config;
            config.lattice = &lattice;
            config.physicalRate = 0.05;
            config.rounds = kRounds;
            config.seed = 0xbadc0deULL + static_cast<std::uint64_t>(d);
            config.latency =
                StreamLatencyModel::forFamily(family.name, d);

            auto scalarDec = family.factory(lattice, ErrorType::Z);
            const RunRecord scalar = record(config, *scalarDec);
            for (std::size_t lanes : {2u, 16u, 64u}) {
                config.batchLanes = lanes;
                auto batchDec = family.factory(lattice, ErrorType::Z);
                const RunRecord batched = record(config, *batchDec);
                expectSameRun(batched, scalar,
                              family.name + " d=" + std::to_string(d) +
                                  " lanes=" + std::to_string(lanes));
            }
            config.batchLanes = 1;
        }
    }
}

TEST(StreamBatch, BatchedConsumerActuallyEngages)
{
    // Byte-identity alone would also pass if the batched path never
    // ran; pin that eligible configurations really drain full groups
    // through decodeBatch.
    SurfaceLattice lattice(5);
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.05;
    config.rounds = kRounds;
    config.seed = 0x7e57ULL;
    config.latency = StreamLatencyModel::forFamily("union_find", 5);

    CountingUnionFind scalarDec(lattice, ErrorType::Z);
    runStream(config, scalarDec);
    EXPECT_EQ(scalarDec.batchCalls, 0u);

    config.batchLanes = 16;
    CountingUnionFind batchDec(lattice, ErrorType::Z);
    runStream(config, batchDec);
    EXPECT_EQ(batchDec.batchCalls, kRounds / 16 + (kRounds % 16 != 0));
    EXPECT_EQ(batchDec.maxGroup, 16u);
}

TEST(StreamBatch, FaultStruckRoundsReplayScalarAndStayIdentical)
{
    // A dense fault mix (drops, corruptions, duplicates, delays,
    // stalls, decode failures) with carry-forward + retransmit +
    // deadline recovery: fault-struck rounds flush the group and run
    // the scalar path, and the whole run stays byte-identical.
    SurfaceLattice lattice(5);
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.05;
    config.rounds = kRounds;
    config.seed = 0xfa117ULL;
    config.latency = StreamLatencyModel::forFamily("union_find", 5);
    config.faults.dropRate = 0.1;
    config.faults.corruptRate = 0.1;
    config.faults.duplicateRate = 0.05;
    config.faults.delayRate = 0.05;
    config.faults.stallRate = 0.1;
    config.faults.decodeFailRate = 0.05;
    config.recovery.parityRetransmit = true;
    config.recovery.carryForward = true;
    config.recovery.deadlineNs = 2500.0;

    for (const char *family : {"union_find", "mwpm"}) {
        config.latency = StreamLatencyModel::forFamily(family, 5);
        auto scalarDec = decoderFamilies()[decoderFamilyIndex(family)]
                             .factory(lattice, ErrorType::Z);
        config.batchLanes = 1;
        const RunRecord scalar = record(config, *scalarDec);
        for (std::size_t lanes : {4u, 32u}) {
            config.batchLanes = lanes;
            auto batchDec =
                decoderFamilies()[decoderFamilyIndex(family)].factory(
                    lattice, ErrorType::Z);
            const RunRecord batched = record(config, *batchDec);
            expectSameRun(batched, scalar,
                          std::string(family) + " faults lanes=" +
                              std::to_string(lanes));
        }
    }
}

TEST(StreamBatch, IneligibleConfigurationsFallBackScalar)
{
    SurfaceLattice lattice(3);
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.05;
    config.rounds = 120;
    config.seed = 0x5ca1eULL;
    config.latency = StreamLatencyModel::forFamily("union_find", 3);
    config.batchLanes = 8;

    // Load shedding decides per round whether to decode at all, so the
    // batched consumer must stay out of the way.
    config.faults.dropRate = 0.1;
    config.recovery.shedThreshold = 4;
    CountingUnionFind shedDec(lattice, ErrorType::Z);
    runStream(config, shedDec);
    EXPECT_EQ(shedDec.batchCalls, 0u);

    // The windowed pipeline decodes whole spacetime windows; the
    // per-round batched consumer does not apply.
    StreamConfig windowed;
    windowed.lattice = &lattice;
    windowed.physicalRate = 0.05;
    windowed.rounds = 120;
    windowed.windowRounds = 4;
    windowed.seed = 0x5ca1eULL;
    windowed.latency = StreamLatencyModel::forFamily("union_find", 3);
    windowed.batchLanes = 8;
    CountingUnionFind windowDec(lattice, ErrorType::Z);
    const StreamingResult wr = runStream(windowed, windowDec);
    EXPECT_EQ(windowDec.batchCalls, 0u);
    EXPECT_EQ(wr.windows, 30u);
}

} // namespace
} // namespace nisqpp
