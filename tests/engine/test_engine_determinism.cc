/**
 * @file The engine's headline guarantee: for one master seed and one
 * shard size, the merged aggregates of a sweep are byte-identical at
 * any thread count.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace nisqpp {
namespace {

SweepConfig
smallSweep()
{
    SweepConfig config;
    config.distances = {3, 5};
    config.physicalRates = {0.03, 0.08};
    config.lifetimeMode = true;
    config.stopRule = {600, 600, 1u << 30};
    config.seed = 0xfeedULL;
    return config;
}

/** Every counter, gauge and histogram of @p metrics, as JSON. */
std::string
metricsText(const obs::MetricSet &metrics)
{
    std::ostringstream os;
    metrics.writeScalarsJson(os, false);
    metrics.writeScalarsJson(os, true);
    metrics.writeHistogramsJson(os);
    return os.str();
}

void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t di = 0; di < a.cells.size(); ++di) {
        ASSERT_EQ(a.cells[di].size(), b.cells[di].size());
        for (std::size_t pi = 0; pi < a.cells[di].size(); ++pi) {
            const MonteCarloResult &ca = a.cells[di][pi];
            const MonteCarloResult &cb = b.cells[di][pi];
            EXPECT_EQ(ca.trials, cb.trials);
            EXPECT_EQ(ca.failures, cb.failures);
            EXPECT_EQ(ca.syndromeResidualFailures,
                      cb.syndromeResidualFailures);
            EXPECT_DOUBLE_EQ(ca.logicalErrorRate, cb.logicalErrorRate);
            // Cycle statistics merge in shard-index order, so even the
            // floating-point accumulations must agree bit-for-bit.
            EXPECT_EQ(ca.cycles.count(), cb.cycles.count());
            EXPECT_DOUBLE_EQ(ca.cycles.mean(), cb.cycles.mean());
            EXPECT_DOUBLE_EQ(ca.cycles.variance(),
                             cb.cycles.variance());
            EXPECT_DOUBLE_EQ(ca.cycles.max(), cb.cycles.max());
            ASSERT_EQ(ca.cycleHistogram.numBins(),
                      cb.cycleHistogram.numBins());
            EXPECT_EQ(ca.cycleHistogram.total(),
                      cb.cycleHistogram.total());
            EXPECT_EQ(ca.cycleHistogram.overflow(),
                      cb.cycleHistogram.overflow());
            for (std::size_t bin = 0;
                 bin < ca.cycleHistogram.numBins(); ++bin)
                EXPECT_EQ(ca.cycleHistogram.bin(bin),
                          cb.cycleHistogram.bin(bin));
        }
        EXPECT_EQ(a.curves[di].pl, b.curves[di].pl);
    }
}

TEST(EngineDeterminism, OneThreadEqualsFourThreads)
{
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions one;
    one.threads = 1;
    one.shardTrials = 128; // several shards per cell
    EngineOptions four = one;
    four.threads = 4;

    Engine serial(one), parallel(four);
    expectIdentical(serial.runSweep(config, factory),
                    parallel.runSweep(config, factory));
}

TEST(EngineDeterminism, EarlyStopIsThreadCountInvariant)
{
    // targetFailures trips mid-sweep; the merged prefix must be the
    // same ordered set of shards regardless of completion order.
    SweepConfig config;
    config.distances = {3};
    config.physicalRates = {0.15};
    config.stopRule = {100, 4000, 40};
    config.seed = 0xdeadULL;
    const auto factory = mwpmDecoderFactory();

    EngineOptions one;
    one.threads = 1;
    one.shardTrials = 50;
    EngineOptions four = one;
    four.threads = 4;

    Engine serial(one), parallel(four);
    const auto a = serial.runSweep(config, factory);
    const auto b = parallel.runSweep(config, factory);
    EXPECT_EQ(a.cells[0][0].trials, b.cells[0][0].trials);
    EXPECT_EQ(a.cells[0][0].failures, b.cells[0][0].failures);
    EXPECT_GE(a.cells[0][0].failures, 40u);
    EXPECT_LT(a.cells[0][0].trials, 4000u);
}

TEST(EngineDeterminism, BatchedLanesMatchScalarAtAnyThreadCount)
{
    // The headline guarantee extended to the lane-packed batch path:
    // a 4-thread engine decoding 256-round groups produces the same
    // bytes as a 1-thread scalar engine, for the same seed and shard
    // size. Group boundaries (including odd sizes that straddle shard
    // remainders) never leak into the aggregates.
    SweepConfig config;
    config.distances = {3, 5};
    config.physicalRates = {0.05, 0.1};
    config.stopRule = {600, 600, 1u << 30};
    config.seed = 0xbeefULL;
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions scalar;
    scalar.threads = 1;
    scalar.shardTrials = 128;
    scalar.batchLanes = 1;
    EngineOptions batchedOdd = scalar;
    batchedOdd.batchLanes = 7;
    EngineOptions batchedMt = scalar;
    batchedMt.threads = 4;
    batchedMt.batchLanes = 256;

    Engine a(scalar), b(batchedOdd), c(batchedMt);
    const SweepResult reference = a.runSweep(config, factory);
    expectIdentical(reference, b.runSweep(config, factory));
    expectIdentical(reference, c.runSweep(config, factory));
}

TEST(EngineDeterminism, BatchedDepolarizingSweepMatchesScalar)
{
    // Depolarizing cells decode both families; the batched path
    // interleaves Z/X telemetry per round exactly like the scalar
    // loop, so even the Welford accumulations agree bit-for-bit.
    SweepConfig config;
    config.distances = {3};
    config.physicalRates = {0.06};
    config.noise = NoiseSpec::depolarizing();
    config.stopRule = {300, 300, 1u << 30};
    config.seed = 0xd0d0ULL;
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions scalar;
    scalar.threads = 1;
    scalar.shardTrials = 100;
    EngineOptions batched = scalar;
    batched.threads = 3;
    batched.batchLanes = 33;

    Engine a(scalar), b(batched);
    expectIdentical(a.runSweep(config, factory),
                    b.runSweep(config, factory));
}

TEST(EngineDeterminism, UnionFindLaneAndThreadGridIsInvariant)
{
    // Union-find's batch path under the full grid of batch lanes
    // {1, 4, 64} x threads {1, 4}: every combination must produce the
    // same bytes as the scalar single-threaded reference, including
    // the growth rounds folded into the cycle statistics.
    SweepConfig config;
    config.distances = {3, 5};
    config.physicalRates = {0.04, 0.09};
    config.lifetimeMode = true;
    config.stopRule = {500, 500, 1u << 30};
    config.seed = 0x0f00dULL;
    const auto factory = unionFindDecoderFactory();

    EngineOptions reference;
    reference.threads = 1;
    reference.shardTrials = 96;
    reference.batchLanes = 1;
    Engine ref(reference);
    const SweepResult expected = ref.runSweep(config, factory);

    for (std::size_t lanes : {1u, 4u, 64u}) {
        for (int threads : {1, 4}) {
            EngineOptions options = reference;
            options.batchLanes = lanes;
            options.threads = threads;
            Engine engine(options);
            SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                         " threads=" + std::to_string(threads));
            expectIdentical(expected, engine.runSweep(config, factory));
        }
    }
}

TEST(EngineDeterminism, WindowedSweepIsThreadAndLaneInvariant)
{
    // The faulty-measurement windowed protocol inherits the headline
    // guarantee: sharded windowed cells merge to the same bytes at
    // any thread count, batched or scalar.
    SweepConfig config;
    config.distances = {3};
    config.physicalRates = {0.02, 0.04};
    config.noise = NoiseSpec::dephasing().withQ(0.02); // q fixed
    config.windowRounds = 3;
    config.stopRule = {400, 400, 1u << 30};
    config.seed = 0x91ceULL;
    const auto factory = unionFindDecoderFactory();

    EngineOptions scalar;
    scalar.threads = 1;
    scalar.shardTrials = 64;
    EngineOptions batchedMt = scalar;
    batchedMt.threads = 4;
    batchedMt.batchLanes = 13;

    Engine a(scalar), b(batchedMt);
    expectIdentical(a.runSweep(config, factory),
                    b.runSweep(config, factory));
}

TEST(EngineDeterminism, CellSpecBatchLanesOverridesEngineDefault)
{
    SurfaceLattice lattice(3);
    const DecoderFactory factory =
        meshDecoderFactory(MeshConfig::finalDesign());
    CellSpec cell;
    cell.lattice = &lattice;
    cell.physicalRate = 0.08;
    cell.rule = {400, 400, 1u << 30};
    cell.seed = 7;
    cell.factory = &factory;

    EngineOptions scalarOptions; // engine default: scalar
    Engine engine(scalarOptions);
    const MonteCarloResult reference = engine.runCell(cell);
    cell.batchLanes = 64; // per-cell override onto the batch path
    const MonteCarloResult batched = engine.runCell(cell);
    EXPECT_EQ(reference.trials, batched.trials);
    EXPECT_EQ(reference.failures, batched.failures);
    EXPECT_DOUBLE_EQ(reference.cycles.mean(), batched.cycles.mean());
}

TEST(EngineDeterminism, RepeatedRunsIdentical)
{
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    EngineOptions options;
    options.threads = 2;
    options.shardTrials = 128;
    Engine engine(options);
    expectIdentical(engine.runSweep(config, factory),
                    engine.runSweep(config, factory));
}

TEST(EngineDeterminism, RunCellFinalizesDerivedFields)
{
    SurfaceLattice lattice(3);
    const DecoderFactory factory = mwpmDecoderFactory();
    CellSpec cell;
    cell.lattice = &lattice;
    cell.physicalRate = 0.08;
    cell.rule = {400, 400, 1u << 30};
    cell.seed = 7;
    cell.factory = &factory;

    EngineOptions options;
    options.threads = 2;
    options.shardTrials = 100;
    Engine engine(options);
    const MonteCarloResult res = engine.runCell(cell);
    EXPECT_EQ(res.trials, 400u);
    EXPECT_DOUBLE_EQ(res.logicalErrorRate,
                     static_cast<double>(res.failures) / res.trials);
    EXPECT_LE(res.ci.lo, res.logicalErrorRate);
    EXPECT_GE(res.ci.hi, res.logicalErrorRate);
}

/**
 * Every field of @p cell, bit for bit: counts, the cycle statistics'
 * doubles as bit patterns, every histogram bin and all of its metrics.
 */
std::string
fingerprint(const MonteCarloResult &cell)
{
    std::ostringstream os;
    os << cell.trials << ' ' << cell.failures << ' '
       << cell.syndromeResidualFailures << ' ' << std::hex
       << std::bit_cast<std::uint64_t>(cell.logicalErrorRate) << ' '
       << cell.cycles.count() << ' '
       << std::bit_cast<std::uint64_t>(cell.cycles.mean()) << ' '
       << std::bit_cast<std::uint64_t>(cell.cycles.variance()) << ' '
       << std::bit_cast<std::uint64_t>(cell.cycles.max()) << " hist";
    for (std::size_t bin = 0; bin < cell.cycleHistogram.numBins(); ++bin)
        os << ' ' << cell.cycleHistogram.bin(bin);
    os << ' ' << cell.cycleHistogram.overflow() << std::dec << '\n';
    return os.str() + metricsText(cell.metrics);
}

TEST(EngineDeterminism, RunCellsMatchesSeparateCalls)
{
    // One runCells call shares its workers across all of its cells,
    // yet each result, and the engine totals folded in spec order,
    // equal running the same specs one runCell call at a time.
    const SurfaceLattice d3(3), d5(5);
    const DecoderFactory unionFind = unionFindDecoderFactory();
    const DecoderFactory mesh =
        meshDecoderFactory(MeshConfig::finalDesign());
    const auto cell = [](const SurfaceLattice &lattice, double p,
                         std::uint64_t seed, const DecoderFactory &f) {
        CellSpec spec;
        spec.lattice = &lattice;
        spec.physicalRate = p;
        spec.rule = {300, 300, 1u << 30};
        spec.seed = seed;
        spec.factory = &f;
        return spec;
    };
    std::vector<CellSpec> specs{cell(d3, 0.05, 1, unionFind),
                                cell(d5, 0.08, 2, unionFind),
                                cell(d3, 0.03, 3, unionFind),
                                cell(d5, 0.04, 4, mesh)};
    specs[2].noise = NoiseSpec::dephasing().withQ(0.03);
    specs[2].windowRounds = 3;
    specs[3].lifetimeMode = true;
    specs.push_back(specs[1]); // a repeated spec

    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EngineOptions options;
        options.threads = threads;
        options.shardTrials = 64;
        Engine separate(options), together(options);
        std::vector<MonteCarloResult> expected;
        for (const CellSpec &spec : specs)
            expected.push_back(separate.runCell(spec));
        const std::vector<MonteCarloResult> results =
            together.runCells(specs);
        ASSERT_EQ(results.size(), expected.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(fingerprint(results[i]), fingerprint(expected[i]))
                << "cell " << i;
        EXPECT_EQ(metricsText(together.metrics()),
                  metricsText(separate.metrics()));
    }
}

} // namespace
} // namespace nisqpp
