/** @file Tests for the Monte Carlo lifetime simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/mesh_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "noise/noise_model.hh"
#include "sim/monte_carlo.hh"

#include "aggregates.hh"

namespace nisqpp {
namespace {

TEST(MonteCarlo, DeterministicForSeed)
{
    SurfaceLattice lat(3);
    DephasingModel model(0.05);
    MeshDecoder dec1(lat, ErrorType::Z), dec2(lat, ErrorType::Z);
    LifetimeSimulator sim1(lat, model, dec1, nullptr, 99);
    LifetimeSimulator sim2(lat, model, dec2, nullptr, 99);
    StopRule rule{500, 500, 1u << 30};
    const auto r1 = sim1.run(rule);
    const auto r2 = sim2.run(rule);
    EXPECT_EQ(r1.failures, r2.failures);
    EXPECT_EQ(r1.trials, r2.trials);
}

TEST(MonteCarlo, ZeroNoiseZeroFailures)
{
    SurfaceLattice lat(3);
    DephasingModel model(0.0);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 1);
    StopRule rule{200, 200, 1u << 30};
    const auto res = sim.run(rule);
    EXPECT_EQ(res.failures, 0u);
    EXPECT_DOUBLE_EQ(res.logicalErrorRate, 0.0);
}

TEST(MonteCarlo, EarlyStopOnTargetFailures)
{
    SurfaceLattice lat(3);
    DephasingModel model(0.2);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 5);
    StopRule rule{100, 100000, 50};
    const auto res = sim.run(rule);
    EXPECT_GE(res.failures, 50u);
    EXPECT_LT(res.trials, 5000u);
}

TEST(MonteCarlo, CollectsMeshCycleStats)
{
    SurfaceLattice lat(5);
    DephasingModel model(0.05);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 7);
    StopRule rule{300, 300, 1u << 30};
    const auto res = sim.run(rule);
    EXPECT_EQ(res.cycles.count(), res.trials);
    EXPECT_GT(res.cycles.max(), 0.0);
    EXPECT_GT(res.cycleHistogram.total(), 0u);
}

TEST(MonteCarlo, SoftwareDecoderHasNoCycleStats)
{
    SurfaceLattice lat(3);
    DephasingModel model(0.05);
    MwpmDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 7);
    StopRule rule{100, 100, 1u << 30};
    const auto res = sim.run(rule);
    EXPECT_EQ(res.cycles.count(), 0u);
}

TEST(MonteCarlo, DepolarizingNeedsXDecoder)
{
    SurfaceLattice lat(3);
    DepolarizingModel model(0.1);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 7);
    EXPECT_DEATH(sim.run(StopRule{50, 50, 1u << 30}), "no X decoder");
}

TEST(MonteCarlo, DepolarizingWithBothDecoders)
{
    SurfaceLattice lat(3);
    DepolarizingModel model(0.05);
    MeshDecoder dz(lat, ErrorType::Z);
    MeshDecoder dx(lat, ErrorType::X);
    LifetimeSimulator sim(lat, model, dz, &dx, 7);
    StopRule rule{300, 300, 1u << 30};
    const auto res = sim.run(rule);
    EXPECT_EQ(res.trials, 300u);
}

TEST(MonteCarlo, CircuitExtractionMatchesDirect)
{
    // Same seeds, same decoder: syndrome extraction through the
    // stabilizer circuits must give identical Monte Carlo results.
    SurfaceLattice lat(3);
    DephasingModel model(0.08);
    MeshDecoder d1(lat, ErrorType::Z), d2(lat, ErrorType::Z);
    LifetimeSimulator direct(lat, model, d1, nullptr, 31, false);
    LifetimeSimulator circuit(lat, model, d2, nullptr, 31, true);
    StopRule rule{400, 400, 1u << 30};
    EXPECT_EQ(direct.run(rule).failures, circuit.run(rule).failures);
}

TEST(MonteCarlo, MergeMatchesOneLongRun)
{
    // Two half-length runs on distinct child streams, merged, must
    // aggregate exactly like running the same two shards into one
    // accumulator sequentially.
    SurfaceLattice lat(3);
    DephasingModel model(0.08);
    StopRule half{250, 250, 1u << 30};

    MeshDecoder d1(lat, ErrorType::Z), d2(lat, ErrorType::Z);
    LifetimeSimulator sim1(lat, model, d1, nullptr, 41);
    LifetimeSimulator sim2(lat, model, d2, nullptr, 42);
    MonteCarloResult a = sim1.run(half);
    const MonteCarloResult b = sim2.run(half);

    a.merge(b);
    a.finalize();
    EXPECT_EQ(a.trials, 500u);
    EXPECT_EQ(a.cycles.count(), 500u);
    EXPECT_EQ(a.cycleHistogram.total(), 500u);
    EXPECT_DOUBLE_EQ(a.logicalErrorRate,
                     static_cast<double>(a.failures) / 500.0);
    EXPECT_LE(a.ci.lo, a.logicalErrorRate);
    EXPECT_GE(a.ci.hi, a.logicalErrorRate);
}

TEST(MonteCarlo, MergeIntoDefaultAccumulator)
{
    SurfaceLattice lat(3);
    DephasingModel model(0.08);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 43);
    const MonteCarloResult shard = sim.run({100, 100, 1u << 30});

    MonteCarloResult acc; // default: unsized histogram, zero counts
    acc.merge(shard);
    acc.finalize();
    EXPECT_EQ(acc.trials, shard.trials);
    EXPECT_EQ(acc.failures, shard.failures);
    EXPECT_EQ(acc.cycleHistogram.numBins(),
              shard.cycleHistogram.numBins());
    EXPECT_EQ(acc.cycleHistogram.total(),
              shard.cycleHistogram.total());
}

TEST(MonteCarlo, StopRuleScaledMultipliesTrialBudgets)
{
    const StopRule rule{1000, 20000, 100};
    const StopRule doubled = rule.scaled(2.0);
    EXPECT_EQ(doubled.minTrials, 2000u);
    EXPECT_EQ(doubled.maxTrials, 40000u);
    EXPECT_EQ(doubled.targetFailures, 100u); // early stop untouched

    const StopRule ignored = rule.scaled(-3.0);
    EXPECT_EQ(ignored.minTrials, 1000u);
    EXPECT_EQ(ignored.maxTrials, 20000u);

    // Huge multipliers clamp instead of overflowing to zero budgets.
    const StopRule huge = rule.scaled(1e30);
    EXPECT_GT(huge.minTrials, rule.minTrials);
    EXPECT_GT(huge.maxTrials, rule.maxTrials);
    EXPECT_GE(huge.maxTrials, huge.minTrials);

    // Tiny multipliers keep at least one trial: a zero-trial run
    // would masquerade as a genuine zero-failure result.
    const StopRule tiny = rule.scaled(1e-9);
    EXPECT_EQ(tiny.minTrials, 1u);
    EXPECT_EQ(tiny.maxTrials, 1u);
}

TEST(MonteCarlo, ScaledByEnvRejectsMalformedValues)
{
    const StopRule rule{1000, 20000, 100};
    const char *bad[] = {"-2", "0",    "abc", "nan",
                         "inf", "1.5x", "",    "1e30"};
    for (const char *value : bad) {
        setenv("NISQPP_TRIALS", value, 1);
        const StopRule out = rule.scaledByEnv();
        EXPECT_EQ(out.minTrials, rule.minTrials) << value;
        EXPECT_EQ(out.maxTrials, rule.maxTrials) << value;
    }

    setenv("NISQPP_TRIALS", "2.5", 1);
    const StopRule scaled = rule.scaledByEnv();
    EXPECT_EQ(scaled.minTrials, 2500u);
    EXPECT_EQ(scaled.maxTrials, 50000u);

    unsetenv("NISQPP_TRIALS");
    const StopRule unscaled = rule.scaledByEnv();
    EXPECT_EQ(unscaled.minTrials, rule.minTrials);
}

TEST(MonteCarlo, WilsonIntervalBracketsRate)
{
    SurfaceLattice lat(3);
    DephasingModel model(0.1);
    MeshDecoder dec(lat, ErrorType::Z);
    LifetimeSimulator sim(lat, model, dec, nullptr, 3);
    StopRule rule{1000, 1000, 1u << 30};
    const auto res = sim.run(rule);
    EXPECT_LE(res.ci.lo, res.logicalErrorRate);
    EXPECT_GE(res.ci.hi, res.logicalErrorRate);
}

TEST(MonteCarlo, BatchLanesPreserveAggregates)
{
    // The batched per-round protocol consumes the same RNG sequence
    // and records telemetry in the same round order as the scalar
    // loop, so every aggregate is byte-identical for any group size —
    // including odd ones that straddle run boundaries.
    SurfaceLattice lat(5);
    DephasingModel model(0.08);
    const StopRule rule{301, 301, ~std::size_t{0}};

    MeshDecoder scalar_dec(lat, ErrorType::Z);
    LifetimeSimulator scalar(lat, model, scalar_dec, nullptr, 1234);
    const MonteCarloResult reference = scalar.run(rule);

    for (std::size_t lanes : {2u, 7u, 64u}) {
        MeshDecoder dec(lat, ErrorType::Z);
        LifetimeSimulator batched(lat, model, dec, nullptr, 1234);
        batched.setBatchLanes(lanes);
        expectSameAggregates(reference, batched.run(rule));
    }
}

TEST(MonteCarlo, BatchedDepolarizingRunsBothFamilies)
{
    SurfaceLattice lat(3);
    DepolarizingModel model(0.06);
    const StopRule rule{250, 250, ~std::size_t{0}};

    MeshDecoder z1(lat, ErrorType::Z), x1(lat, ErrorType::X);
    LifetimeSimulator scalar(lat, model, z1, &x1, 777);
    const MonteCarloResult reference = scalar.run(rule);

    MeshDecoder z2(lat, ErrorType::Z), x2(lat, ErrorType::X);
    LifetimeSimulator batched(lat, model, z2, &x2, 777);
    batched.setBatchLanes(32);
    expectSameAggregates(reference, batched.run(rule));
}

TEST(MonteCarlo, BatchedEarlyStopMatchesScalar)
{
    // The stop rule can trip mid-group; the surplus lanes must be
    // discarded so counters match the scalar loop exactly.
    SurfaceLattice lat(3);
    DephasingModel model(0.15);
    const StopRule rule{10, 4000, 25};

    MeshDecoder d1(lat, ErrorType::Z);
    LifetimeSimulator scalar(lat, model, d1, nullptr, 42);
    const MonteCarloResult reference = scalar.run(rule);
    ASSERT_GE(reference.failures, 25u);
    ASSERT_LT(reference.trials, 4000u);

    MeshDecoder d2(lat, ErrorType::Z);
    LifetimeSimulator batched(lat, model, d2, nullptr, 42);
    batched.setBatchLanes(17);
    expectSameAggregates(reference, batched.run(rule));
}

TEST(MonteCarlo, BatchFallsBackToScalarInLifetimeMode)
{
    // A lifetime's round k + 1 depends on round k's correction, so
    // batchLanes (which sizes per-round groups only) must be a no-op
    // for it rather than a protocol change; lifetimes share decodes
    // only as lanes of several lifetimes, sized by the decoder.
    SurfaceLattice lat(3);
    DephasingModel model(0.1);
    const StopRule rule{200, 200, ~std::size_t{0}};

    MeshDecoder d1(lat, ErrorType::Z);
    LifetimeSimulator scalar(lat, model, d1, nullptr, 9);
    scalar.setLifetimeMode(true);
    const MonteCarloResult reference = scalar.run(rule);

    MeshDecoder d2(lat, ErrorType::Z);
    LifetimeSimulator batched(lat, model, d2, nullptr, 9);
    batched.setLifetimeMode(true);
    batched.setBatchLanes(16);
    expectSameAggregates(reference, batched.run(rule));
}

/** DecoderT recording the largest group either decode entry saw. */
template <typename DecoderT>
class GroupCounting : public DecoderT
{
  public:
    using DecoderT::DecoderT;
    using DecoderT::decodeBatch;
    using DecoderT::decodeWindowBatch;

    void
    decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                Correction *out, TrialWorkspace &ws) override
    {
        maxGroup = std::max(maxGroup, count);
        DecoderT::decodeBatch(syndromes, count, out, ws);
    }

    void
    decodeWindowBatch(const SyndromeWindow *const *windows,
                      std::size_t count, Correction *out,
                      TrialWorkspace &ws) override
    {
        maxGroup = std::max(maxGroup, count);
        DecoderT::decodeWindowBatch(windows, count, out, ws);
    }

    std::size_t maxGroup = 0;
};

/**
 * Run 200 per-round (@p window = 0) or windowed trials at batch 1 and
 * at batch 64 on fresh DecoderT decoders, require identical
 * aggregates and decoder counters, and return the largest group the
 * batch-64 decoder was handed.
 */
template <typename DecoderT>
std::size_t
largestGroupAtBatch64(const SurfaceLattice &lat, const NoiseModel &model,
                      int window)
{
    const StopRule rule{200, 200, ~std::size_t{0}};
    GroupCounting<DecoderT> one(lat, ErrorType::Z);
    GroupCounting<DecoderT> many(lat, ErrorType::Z);
    const auto run = [&](Decoder &dec, std::size_t lanes) {
        LifetimeSimulator sim(lat, model, dec, nullptr, 11);
        sim.setMeasurementWindow(window);
        sim.setBatchLanes(lanes);
        return sim.run(rule);
    };
    expectSameAggregates(run(one, 1), run(many, 64));
    EXPECT_EQ(decoderCounters(many), decoderCounters(one));
    EXPECT_EQ(one.maxGroup, 1u);
    return many.maxGroup;
}

TEST(MonteCarlo, BatchedSoftwareDecoderUsesFallbackLoop)
{
    // Only a decoder with a lane engine (one that reports mesh
    // telemetry) is handed groups. Software decoders decode one trial
    // per call at any batch setting, per round and windowed, and the
    // results do not move.
    SurfaceLattice lat(3);
    const NoiseModel perRound = NoiseModel::dephasing(0.08, 0.0);
    const NoiseModel noisyReadout = NoiseModel::dephasing(0.03, 0.03);
    EXPECT_EQ(largestGroupAtBatch64<UnionFindDecoder>(lat, perRound, 0),
              1u);
    EXPECT_EQ(
        largestGroupAtBatch64<UnionFindDecoder>(lat, noisyReadout, 3),
        1u);
    EXPECT_EQ(largestGroupAtBatch64<MwpmDecoder>(lat, perRound, 0), 1u);
    EXPECT_EQ(largestGroupAtBatch64<MwpmDecoder>(lat, noisyReadout, 3),
              1u);
    EXPECT_EQ(largestGroupAtBatch64<MeshDecoder>(lat, perRound, 0), 64u);
    EXPECT_EQ(largestGroupAtBatch64<MeshDecoder>(lat, noisyReadout, 3),
              64u);
}

} // namespace
} // namespace nisqpp
