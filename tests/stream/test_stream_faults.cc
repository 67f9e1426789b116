/**
 * @file Fault injection + graceful degradation through runStream: the
 * zero-fault path stays metric- and byte-identical to the pre-fault
 * pipeline, every recovery policy does what its name says, the
 * round-conservation ledger balances under any fault mix, and
 * StreamConfig::validate() rejects every unsupported combination.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_plan.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"
#include "surface/lattice.hh"

namespace nisqpp {
namespace {

constexpr std::size_t kRounds = 300;

StreamConfig
baseConfig(const SurfaceLattice &lattice, const std::string &family)
{
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = 0.05;
    config.rounds = kRounds;
    config.seed = 0xfeedULL;
    config.latency = StreamLatencyModel::forFamily(family, 3);
    return config;
}

std::unique_ptr<Decoder>
makeDecoder(const SurfaceLattice &lattice, const std::string &family)
{
    return decoderFamilies()[decoderFamilyIndex(family)].factory(
        lattice, ErrorType::Z);
}

StreamingResult
run(const StreamConfig &config, const std::string &family)
{
    // Fresh decoder per run: determinism must not rely on warm state.
    const auto decoder = makeDecoder(*config.lattice, family);
    return runStream(config, *decoder);
}

/** One run's result plus every per-round observer correction. */
struct ObservedRun
{
    StreamingResult result;
    std::vector<std::vector<int>> corrections;
};

ObservedRun
runObserved(const StreamConfig &config, const DecoderFactory &factory)
{
    ObservedRun run;
    const StreamObserver observer = [&run](std::size_t, const Syndrome &,
                                           const Correction &c) {
        run.corrections.push_back(c.dataFlips);
    };
    const auto decoder = factory(*config.lattice, ErrorType::Z);
    run.result = runStream(config, *decoder, nullptr, &observer);
    return run;
}

std::uint64_t
accountedRounds(const faults::FaultCounts &fc)
{
    return fc.decodedRounds + fc.carriedForward + fc.lostRounds +
           fc.shedRounds + fc.mergedRounds;
}

TEST(StreamFaults, ZeroFaultRunEmitsNoFaultMetricsOrCounts)
{
    SurfaceLattice lattice(3);
    const StreamingResult r =
        run(baseConfig(lattice, "union_find"), "union_find");
    EXPECT_FALSE(r.faults.anyEvent());
    EXPECT_EQ(r.faults.decodedRounds, 0u); // ledger untouched entirely
    EXPECT_TRUE(r.clockMonotone);
    r.metrics.forEachScalar([](const std::string &name, bool,
                               std::uint64_t) {
        EXPECT_NE(name.rfind("stream.fault.", 0), 0u) << name;
    });
}

TEST(StreamFaults, ZeroFaultWindowedRunLeavesLedgerEmpty)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.measurementFlipRate = 0.02;
    config.windowRounds = 3;
    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(r.windows, kRounds / 3);
    EXPECT_FALSE(r.faults.anyEvent());
    EXPECT_EQ(r.faults.decodedRounds, 0u);
}

TEST(StreamFaults, RecoveryWithNothingFiringMatchesFaultFreeRun)
{
    // Parity retransmit makes the run fault-active, but with every rate 0 no
    // round is struck: each is delivered clean and decoded by the same
    // consumer tail as the fault-free run, so everything but the
    // ledger must match it exactly.
    SurfaceLattice lattice(3);
    const std::vector<std::pair<std::string, DecoderFactory>> decoders{
        {"union_find", unionFindDecoderFactory()},
        {"tiered", tieredDecoderFactory(MeshConfig::finalDesign(),
                                        "union_find", 0.9)}};
    for (const auto &[name, factory] : decoders) {
        SCOPED_TRACE(name);
        StreamConfig clean = baseConfig(lattice, "union_find");
        clean.physicalRate = 0.08; // hot enough to escalate and repair
        if (name == "tiered")
            clean.latency = StreamLatencyModel::tiered("union_find", 3);
        StreamConfig armed = clean;
        armed.recovery.parityRetransmit = true;
        ASSERT_TRUE(armed.faultsActive());

        const ObservedRun a = runObserved(clean, factory);
        const ObservedRun b = runObserved(armed, factory);
        const StreamingResult &ra = a.result;
        const StreamingResult &rb = b.result;
        EXPECT_GT(ra.failures, 0u);
        EXPECT_GT(ra.maxQueueDepth, 1u);
        EXPECT_EQ(ra.repairs > 0, name == "tiered");
        EXPECT_EQ(rb.faults.decodedRounds, kRounds);
        EXPECT_FALSE(rb.faults.anyEvent());

        EXPECT_EQ(rb.failures, ra.failures);
        EXPECT_EQ(rb.escalations, ra.escalations);
        EXPECT_EQ(rb.repairs, ra.repairs);
        EXPECT_EQ(rb.serviceNs.count(), ra.serviceNs.count());
        EXPECT_EQ(rb.serviceNs.mean(), ra.serviceNs.mean());
        EXPECT_EQ(rb.servicePercentiles.p50, ra.servicePercentiles.p50);
        EXPECT_EQ(rb.servicePercentiles.p90, ra.servicePercentiles.p90);
        EXPECT_EQ(rb.servicePercentiles.p99, ra.servicePercentiles.p99);
        EXPECT_EQ(rb.servicePercentiles.max, ra.servicePercentiles.max);
        EXPECT_EQ(rb.maxQueueDepth, ra.maxQueueDepth);
        ASSERT_EQ(rb.trajectory.size(), ra.trajectory.size());
        for (std::size_t s = 0; s < ra.trajectory.size(); ++s) {
            EXPECT_EQ(rb.trajectory[s].round, ra.trajectory[s].round);
            EXPECT_EQ(rb.trajectory[s].backlogRounds,
                      ra.trajectory[s].backlogRounds);
            EXPECT_EQ(rb.trajectory[s].queueDepth,
                      ra.trajectory[s].queueDepth);
        }
        ASSERT_EQ(a.corrections.size(), kRounds);
        EXPECT_EQ(b.corrections, a.corrections);
    }
}

TEST(StreamFaults, FaultyRunIsDeterministic)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.dropRate = 0.2;
    config.faults.corruptRate = 0.1;
    config.faults.duplicateRate = 0.1;
    config.faults.stallRate = 0.2;
    config.recovery.carryForward = true;

    const StreamingResult a = run(config, "union_find");
    const StreamingResult b = run(config, "union_find");
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.faults.drops, b.faults.drops);
    EXPECT_EQ(a.faults.carriedForward, b.faults.carriedForward);
    EXPECT_DOUBLE_EQ(a.sojournNs.mean(), b.sojournNs.mean());
    EXPECT_DOUBLE_EQ(a.drainNs, b.drainNs);
}

TEST(StreamFaults, UnprotectedDropsLoseRounds)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.dropRate = 0.3;

    const StreamingResult r = run(config, "union_find");
    EXPECT_GT(r.faults.drops, 0u);
    EXPECT_EQ(r.faults.lostRounds, r.faults.drops);
    EXPECT_EQ(r.faults.decodedRounds + r.faults.lostRounds, kRounds);
    EXPECT_EQ(r.metrics.value("stream.fault.lost_rounds"),
              r.faults.lostRounds);
    EXPECT_EQ(r.metrics.value("stream.fault.decoded_rounds"),
              r.faults.decodedRounds);
}

TEST(StreamFaults, GenerousRetransmitBudgetRecoversEveryRound)
{
    SurfaceLattice lattice(3);
    StreamConfig clean = baseConfig(lattice, "union_find");
    const StreamingResult baseline = run(clean, "union_find");

    StreamConfig config = clean;
    config.faults.dropRate = 0.2;
    config.faults.corruptRate = 0.1;
    config.recovery.parityRetransmit = true;
    // retransmitsNeeded is capped at kRetryCap, so a budget of
    // kRetryCap + 1 attempts recovers every transport fault.
    config.recovery.maxRetransmits = faults::kRetryCap + 1;

    const StreamingResult r = run(config, "union_find");
    EXPECT_GT(r.faults.retransmits, 0u);
    EXPECT_EQ(r.faults.lostRounds, 0u);
    EXPECT_EQ(r.faults.corruptDecodes, 0u);
    EXPECT_EQ(r.faults.decodedRounds, kRounds);
    // Recovered transport is *correct* transport: the decoded physics
    // matches the fault-free run exactly; only timing differs.
    EXPECT_EQ(r.failures, baseline.failures);
    EXPECT_EQ(r.logicalErrorRate, baseline.logicalErrorRate);
    EXPECT_EQ(r.metrics.value("stream.fault.retransmits"),
              r.faults.retransmits);
}

TEST(StreamFaults, CarryForwardTradesLossForStaleDecodes)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.dropRate = 0.3;
    config.recovery.carryForward = true;

    const StreamingResult r = run(config, "union_find");
    EXPECT_GT(r.faults.carriedForward, 0u);
    // Only drops before the first clean round can still be lost.
    EXPECT_LE(r.faults.lostRounds, r.faults.drops);
    EXPECT_EQ(accountedRounds(r.faults), kRounds);
}

TEST(StreamFaults, SilentCorruptionDecodesAsIs)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.corruptRate = 1.0;

    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(r.faults.corruptions, kRounds);
    EXPECT_EQ(r.faults.corruptDecodes, kRounds);
    EXPECT_EQ(r.faults.decodedRounds, kRounds);
    EXPECT_EQ(r.faults.lostRounds, 0u);
}

TEST(StreamFaults, DuplicatesAreDedupedExactly)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.duplicateRate = 1.0;

    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(r.faults.duplicates, kRounds);
    EXPECT_EQ(r.faults.dedupRounds, r.faults.duplicates);
    EXPECT_EQ(r.faults.decodedRounds, kRounds);
}

TEST(StreamFaults, StallsInflateServiceTime)
{
    SurfaceLattice lattice(3);
    StreamConfig clean = baseConfig(lattice, "union_find");
    const StreamingResult baseline = run(clean, "union_find");

    StreamConfig config = clean;
    config.faults.stallRate = 1.0;
    config.faults.stallFactor = 4.0;

    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(r.faults.stalls, kRounds);
    EXPECT_DOUBLE_EQ(r.serviceNs.mean(),
                     4.0 * baseline.serviceNs.mean());
}

TEST(StreamFaults, DecodeFailuresCommitNothing)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.decodeFailRate = 1.0;

    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(r.faults.decodeFailures, kRounds);
    // The round still ran (and paid for) a decode.
    EXPECT_EQ(r.faults.decodedRounds, kRounds);
}

TEST(StreamFaults, DeadlineClampsEveryServiceTime)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    // union-find's reference latency is ~850 ns; a 500 ns budget must
    // clamp every round (no tiered decoder here, so no commits).
    config.recovery.deadlineNs = 500.0;

    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(r.faults.deadlineClamps, kRounds);
    EXPECT_EQ(r.faults.deadlineCommits, 0u);
    EXPECT_LE(r.servicePercentiles.p99, 500.0);
    EXPECT_DOUBLE_EQ(r.serviceNs.mean(), 500.0);
}

TEST(StreamFaults, DeadlineCommitsProvisionalOnEscalatedTieredDecodes)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.latency = StreamLatencyModel::tiered("union_find", 3);
    config.physicalRate = 0.08; // hot syndromes force escalations
    config.recovery.deadlineNs = 400.0;

    const auto decoder = tieredDecoderFactory(
        MeshConfig::finalDesign(), "union_find", 0.9)(lattice,
                                                      ErrorType::Z);
    const StreamingResult r = runStream(config, *decoder);
    EXPECT_GT(r.escalations, 0u);
    // Escalated decodes blow a 400 ns budget (mesh attempt + ~850 ns
    // union-find surcharge) and commit the provisional mesh answer.
    EXPECT_GT(r.faults.deadlineCommits, 0u);
    EXPECT_LE(r.servicePercentiles.p99, 400.0);
    EXPECT_EQ(accountedRounds(r.faults), kRounds);
}

TEST(StreamFaults, DropOldestSheddingBoundsBacklog)
{
    SurfaceLattice lattice(3);
    // MWPM's f > 1 latency grows backlog without bound on this
    // horizon; shedding must cap it near the threshold.
    StreamConfig unshed = baseConfig(lattice, "mwpm");
    const StreamingResult reference = run(unshed, "mwpm");

    StreamConfig config = unshed;
    config.recovery.shedThreshold = 8;
    config.recovery.shedMode = faults::ShedMode::DropOldest;
    const StreamingResult r = run(config, "mwpm");

    EXPECT_GT(r.faults.shedRounds, 0u);
    EXPECT_LT(r.maxBacklogRounds, reference.maxBacklogRounds);
    EXPECT_EQ(accountedRounds(r.faults), kRounds);
    EXPECT_EQ(r.faults.decodedRounds + r.faults.shedRounds, kRounds);
}

TEST(StreamFaults, XorMergeShedsWithSurcharge)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "mwpm");
    config.recovery.shedThreshold = 8;
    config.recovery.shedMode = faults::ShedMode::XorMerge;
    config.recovery.mergeNs = 25.0;

    const StreamingResult r = run(config, "mwpm");
    EXPECT_GT(r.faults.mergedRounds, 0u);
    EXPECT_EQ(r.faults.shedRounds, 0u);
    EXPECT_EQ(accountedRounds(r.faults), kRounds);
}

TEST(StreamFaults, ConservationHoldsUnderEverythingAtOnce)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.faults.dropRate = 0.2;
    config.faults.corruptRate = 0.15;
    config.faults.duplicateRate = 0.2;
    config.faults.delayRate = 0.2;
    config.faults.stallRate = 0.2;
    config.faults.decodeFailRate = 0.1;
    config.recovery.parityRetransmit = true;
    config.recovery.maxRetransmits = 2;
    config.recovery.carryForward = true;
    config.recovery.deadlineNs = 900.0;
    config.recovery.shedThreshold = 12;
    config.recovery.shedMode = faults::ShedMode::XorMerge;

    const StreamingResult r = run(config, "union_find");
    EXPECT_EQ(accountedRounds(r.faults), kRounds);
    EXPECT_EQ(r.faults.dedupRounds, r.faults.duplicates);
    EXPECT_TRUE(r.clockMonotone);
    EXPECT_GE(r.drainNs, 0.0);
    EXPECT_EQ(r.metrics.value("stream.fault.decoded_rounds"),
              r.faults.decodedRounds);
}

TEST(StreamFaultsDeath, WindowedPipelineRejectsFaults)
{
    SurfaceLattice lattice(3);
    StreamConfig config = baseConfig(lattice, "union_find");
    config.measurementFlipRate = 0.01;
    config.windowRounds = 3;
    config.rounds = 300;
    config.faults.dropRate = 0.1;
    const auto decoder = makeDecoder(lattice, "union_find");
    EXPECT_DEATH(runStream(config, *decoder), "windowRounds");
}

/** A config validate() accepts: per-round, fault-free, q = 0. */
StreamConfig
validConfig(const SurfaceLattice &lattice)
{
    StreamConfig config = baseConfig(lattice, "union_find");
    config.validate();
    return config;
}

TEST(StreamConfigDeath, FaultsWithWindowsAreRejected)
{
    SurfaceLattice lattice(3);
    StreamConfig config = validConfig(lattice);
    config.windowRounds = 3;
    config.validate(); // windows alone are fine
    config.recovery.carryForward = true;
    EXPECT_DEATH(config.validate(), "windowRounds");
}

TEST(StreamConfigDeath, MeasurementNoiseWithoutWindowIsRejected)
{
    SurfaceLattice lattice(3);
    StreamConfig config = validConfig(lattice);
    config.measurementFlipRate = 0.01;
    EXPECT_DEATH(config.validate(), "requires windowRounds");
}

TEST(StreamConfigDeath, RoundsNotMultipleOfWindowAreRejected)
{
    SurfaceLattice lattice(3);
    StreamConfig config = validConfig(lattice);
    config.windowRounds = 7; // kRounds = 300
    EXPECT_DEATH(config.validate(), "multiple of windowRounds");
}

TEST(StreamConfigDeath, NegativeRecoveryCostIsRejected)
{
    // Checked even while the policy is inactive.
    SurfaceLattice lattice(3);
    StreamConfig config = validConfig(lattice);
    config.recovery.retransmitNs = -1.0;
    ASSERT_FALSE(config.faultsActive());
    EXPECT_DEATH(config.validate(), "retransmitNs must be >= 0");
}

} // namespace
} // namespace nisqpp
