/**
 * @file
 * Lifetime-protocol sweeps pinned to literals. The engine may run
 * several lifetimes (shards) as lanes of one simulator, grouped by
 * the decoder's lane capacity, which follows the SIMD width, and by
 * claim races between threads. None of that may reach a result:
 * every cell's trials, failures, cycle histogram and exported
 * decoder.* / engine.* counters must equal the values recorded from
 * one-shard-per-simulator runs, at every thread count and width, and
 * through both builds (portable and native-ISA) of the wide words.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "core/mesh_decoder.hh"
#include "obs/metrics.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace {

/** FNV-1a over the nonzero (bin, count) pairs and the overflow. */
std::uint64_t
histogramDigest(const Histogram &h)
{
    std::uint64_t x = 0xcbf29ce484222325ULL;
    const auto mix = [&x](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            x ^= (v >> (8 * i)) & 0xff;
            x *= 0x100000001b3ULL;
        }
    };
    for (std::size_t b = 0; b < h.numBins(); ++b)
        if (h.bin(b) != 0) {
            mix(b);
            mix(h.bin(b));
        }
    mix(h.overflow());
    return x;
}

/** Canonical text of everything a cell result must reproduce. */
std::string
describe(const MonteCarloResult &cell)
{
    std::ostringstream os;
    os << "trials=" << cell.trials << " failures=" << cell.failures
       << " residual=" << cell.syndromeResidualFailures
       << " hist=" << cell.cycleHistogram.total() << '/' << std::hex
       << histogramDigest(cell.cycleHistogram) << std::dec;
    cell.metrics.forEachScalar(
        [&os](const std::string &name, bool, std::uint64_t value) {
            if (name.rfind("decoder.", 0) == 0 ||
                name.rfind("engine.", 0) == 0)
                os << ' ' << name << '=' << value;
        });
    return os.str();
}

/** Restores the process-wide SIMD width and engine build on exit. */
struct WidthGuard
{
    simd::Width saved = simd::activeWidth();
    ~WidthGuard()
    {
        simd::setActiveWidth(saved);
        simd::setPortableForTest(false);
    }
};

/** Lane word bits of a dispatch width (sched.simd.width_bits). */
std::uint64_t
widthBits(simd::Width w)
{
    switch (w) {
      case simd::Width::Scalar:
        return 64;
      case simd::Width::V256:
        return 256;
      case simd::Width::V512:
        return 512;
    }
    return 0;
}

constexpr simd::Width kWidths[] = {simd::Width::Scalar,
                                   simd::Width::V256,
                                   simd::Width::V512};

EngineOptions
options(int threads)
{
    EngineOptions o;
    o.threads = threads;
    o.shardTrials = 64;
    return o;
}

/**
 * d = 3, 5, 7 x three rates, 64-round shards. The failure target
 * stops every p = 10% cell mid-plan, so shards claimed past a stop
 * index (with their counters) must be discarded.
 */
SweepConfig
meshSweep()
{
    SweepConfig config;
    config.distances = {3, 5, 7};
    config.physicalRates = {0.02, 0.05, 0.1};
    config.lifetimeMode = true;
    config.stopRule = {64, 1280, 150};
    config.seed = 0x11fe7ULL;
    return config;
}

/** Recorded with one simulator per shard (scalar strip mesh). */
const char *const kMeshSweep[] = {
    "trials=1280 failures=12 residual=0 hist=1280/c4b3f47324a96399"
    " decoder.mesh.cycles=2241 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=494"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=316"
    " engine.cells=1 engine.failures=12"
    " engine.shards=20 engine.trials=1280",
    "trials=1280 failures=60 residual=0 hist=1280/39cfc6994e4c4694"
    " decoder.mesh.cycles=5255 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=1214"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=734"
    " engine.cells=1 engine.failures=60"
    " engine.shards=20 engine.trials=1280",
    "trials=1088 failures=158 residual=0 hist=1088/f9a6bfa0f7298ea5"
    " decoder.mesh.cycles=7803 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1088 decoder.mesh.pairings=1742"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=1032"
    " engine.cells=1 engine.failures=158"
    " engine.shards=17 engine.trials=1088",
    "trials=1280 failures=11 residual=0 hist=1280/834c728ca96175b5"
    " decoder.mesh.cycles=6490 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=1816"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=907"
    " engine.cells=1 engine.failures=11"
    " engine.shards=20 engine.trials=1280",
    "trials=1280 failures=81 residual=0 hist=1280/f87772b8a57d84fa"
    " decoder.mesh.cycles=15364 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=3882"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=1779"
    " engine.cells=1 engine.failures=81"
    " engine.shards=20 engine.trials=1280",
    "trials=640 failures=156 residual=0 hist=640/64da548aba436557"
    " decoder.mesh.cycles=14966 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=640 decoder.mesh.pairings=3508"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=1461"
    " engine.cells=1 engine.failures=156"
    " engine.shards=10 engine.trials=640",
    "trials=1280 failures=10 residual=0 hist=1280/8082824176960930"
    " decoder.mesh.cycles=11729 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=3766"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=1493"
    " engine.cells=1 engine.failures=10"
    " engine.shards=20 engine.trials=1280",
    "trials=1280 failures=77 residual=0 hist=1280/1df55190a7ff29f8"
    " decoder.mesh.cycles=27252 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=8549"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=2736"
    " engine.cells=1 engine.failures=77"
    " engine.shards=20 engine.trials=1280",
    "trials=704 failures=159 residual=0 hist=704/c70d0002bbdda939"
    " decoder.mesh.cycles=26618 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=704 decoder.mesh.pairings=8344"
    " decoder.mesh.quiesced=0 decoder.mesh.resets=2310"
    " engine.cells=1 engine.failures=159"
    " engine.shards=11 engine.trials=704",
};

CellSpec
lifetimeCell(const SurfaceLattice &lattice, const DecoderFactory &factory,
             double p, NoiseSpec noise, std::uint64_t seed)
{
    CellSpec spec;
    spec.lattice = &lattice;
    spec.physicalRate = p;
    spec.noise = noise;
    spec.lifetimeMode = true;
    spec.rule = {640, 640, 1u << 30};
    spec.seed = seed;
    spec.factory = &factory;
    return spec;
}

const char *const kDepolarizingMesh =
    "trials=640 failures=140 residual=0 hist=1280/3d60eba1600979a2"
    " decoder.mesh.cycles=29868 decoder.mesh.cycles_capped=0"
    " decoder.mesh.decodes=1280 decoder.mesh.pairings=2655"
    " decoder.mesh.quiesced=597 decoder.mesh.resets=951"
    " engine.cells=1 engine.failures=140"
    " engine.shards=10 engine.trials=640";
const char *const kUnionFind =
    "trials=640 failures=5 residual=0 hist=0/a8c7f832281a39c5"
    " decoder.uf.decodes=640 decoder.uf.growth_rounds=778"
    " decoder.uf.peel_flips=1100 decoder.uf.window_decodes=0"
    " engine.cells=1 engine.failures=5"
    " engine.shards=10 engine.trials=640";

TEST(LifetimeLanes, MeshSweepMatchesPinnedAtEveryWidthAndThreadCount)
{
    WidthGuard guard;
    const SweepConfig config = meshSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    for (simd::Width width : kWidths) {
        for (int threads : {1, 3}) {
            simd::setActiveWidth(width);
            SCOPED_TRACE(std::string("width=") + simd::widthName(width) +
                         " threads=" + std::to_string(threads));
            Engine engine(options(threads));
            const SweepResult result = engine.runSweep(config, factory);
            std::size_t i = 0;
            for (const auto &row : result.cells)
                for (const MonteCarloResult &cell : row) {
                    ASSERT_LT(i, std::size(kMeshSweep));
                    EXPECT_EQ(describe(cell), kMeshSweep[i]) << "cell " << i;
                    ++i;
                }
            EXPECT_EQ(i, std::size(kMeshSweep));

            // The run report says how lifetimes were grouped: mesh
            // simulators each ran several lifetimes as lanes.
            obs::MetricSet runtime;
            engine.runtimeMetricsInto(runtime);
            const std::uint64_t groups =
                runtime.value("sched.lifetime.groups");
            EXPECT_GE(groups, 1u);
            EXPECT_GT(runtime.value("sched.lifetime.lanes"), groups);
            // ... and which lane engine ran them.
            EXPECT_EQ(runtime.value("sched.simd.width_bits"),
                      widthBits(width));
            EXPECT_EQ(runtime.value("sched.simd.native"),
                      simd::nativeEngine(width) ? 1u : 0u);
        }
    }
    // Host facts, so masked: runs pinned to different widths or builds
    // still compare clean.
    EXPECT_TRUE(obs::maskedName("sched.simd.width_bits"));
    EXPECT_TRUE(obs::maskedName("sched.simd.native"));
}

/** describe() of every cell of meshSweep() on 3 threads. */
std::vector<std::string>
sweepCells(obs::MetricSet &runtime)
{
    Engine engine(options(3));
    const SweepResult result = engine.runSweep(
        meshSweep(), meshDecoderFactory(MeshConfig::finalDesign()));
    engine.runtimeMetricsInto(runtime);
    std::vector<std::string> cells;
    for (const auto &row : result.cells)
        for (const MonteCarloResult &cell : row)
            cells.push_back(describe(cell));
    return cells;
}

/**
 * The lifetime sweep at @p width through the portable build, which
 * must give the pinned values, and then through the native build,
 * which must give the portable build's results and decoder.mesh.*
 * counters. Only the native half is skipped, and only when the CPU
 * lacks the width's ISA.
 */
void
expectNativeSweepMatchesPortable(simd::Width width)
{
    WidthGuard guard;
    simd::setActiveWidth(width);
    simd::setPortableForTest(true);
    obs::MetricSet portableRuntime;
    const std::vector<std::string> portable = sweepCells(portableRuntime);
    ASSERT_EQ(portable.size(), std::size(kMeshSweep));
    for (std::size_t i = 0; i < portable.size(); ++i)
        EXPECT_EQ(portable[i], kMeshSweep[i]) << "cell " << i;
    EXPECT_EQ(portableRuntime.value("sched.simd.width_bits"),
              widthBits(width));
    EXPECT_EQ(portableRuntime.value("sched.simd.native"), 0u);

    if (!simd::cpuSupports(width))
        GTEST_SKIP() << "native half skipped: the CPU lacks the ISA of "
                     << simd::widthName(width);
    simd::setPortableForTest(false);
    obs::MetricSet nativeRuntime;
    EXPECT_EQ(sweepCells(nativeRuntime), portable);
    EXPECT_EQ(nativeRuntime.value("sched.simd.native"), 1u);
}

TEST(LifetimeLanes, NativeSweepMatchesPortableAtV256)
{
    expectNativeSweepMatchesPortable(simd::Width::V256);
}

TEST(LifetimeLanes, NativeSweepMatchesPortableAtV512)
{
    expectNativeSweepMatchesPortable(simd::Width::V512);
}

TEST(LifetimeLanes, StoppedCellEndsMidPlan)
{
    // The pinned sweep must keep exercising the discard path: every
    // p = 10% cell stops before its 1280-round budget.
    const SweepResult result =
        Engine(options(1)).runSweep(meshSweep(),
                                    meshDecoderFactory(
                                        MeshConfig::finalDesign()));
    for (const auto &row : result.cells) {
        EXPECT_LT(row[2].trials, 1280u);
        EXPECT_GE(row[2].failures, 150u);
        EXPECT_EQ(row[0].trials, 1280u);
    }
}

TEST(LifetimeLanes, DepolarizingMeshCellDecodesBothFamilies)
{
    // The reset-only variant quiesces often, so the per-lane
    // decoder.mesh.quiesced attribution is pinned too.
    WidthGuard guard;
    const SurfaceLattice lattice(5);
    const auto factory = meshDecoderFactory(MeshConfig::withReset());
    const CellSpec spec = lifetimeCell(lattice, factory, 0.04,
                                       NoiseSpec::depolarizing(), 0xde9ULL);
    for (simd::Width width : kWidths) {
        for (int threads : {1, 3}) {
            simd::setActiveWidth(width);
            SCOPED_TRACE(std::string("width=") + simd::widthName(width) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(describe(Engine(options(threads)).runCell(spec)),
                      kDepolarizingMesh);
        }
    }
}

/** The final-design mesh with a 3d-cycle cap and a 4-cycle window. */
std::unique_ptr<MeshDecoder>
tightMesh(const SurfaceLattice &lattice, ErrorType type)
{
    auto mesh = std::make_unique<MeshDecoder>(lattice, type,
                                              MeshConfig::finalDesign());
    mesh->setLimitsForTest(3 * lattice.distance(), 4);
    return mesh;
}

/**
 * tightMesh() behind the plain Decoder interface: not a MeshDecoder,
 * so the engine runs one lifetime per simulator and decodes each round
 * as a batch of one.
 */
class OneLaneTightMesh : public Decoder
{
  public:
    OneLaneTightMesh(const SurfaceLattice &lattice, ErrorType type)
        : Decoder(lattice, type), mesh_(tightMesh(lattice, type))
    {}

    using Decoder::decodeBatch;

    void
    decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                Correction *out, TrialWorkspace &ws) override
    {
        mesh_->decodeBatch(syndromes, count, out, ws);
    }

    const MeshDecodeStats *
    meshStats(std::size_t lane) const override
    {
        return mesh_->meshStats(lane);
    }

    void
    exportMetrics(obs::MetricSet &out) const override
    {
        mesh_->exportMetrics(out);
    }

    std::string name() const override { return mesh_->name(); }

  private:
    std::unique_ptr<MeshDecoder> mesh_;
};

TEST(LifetimeLanes, TightLimitsMatchOneLifetimePerSimulator)
{
    // Under a 3d-cycle cap and a 4-cycle quiescence window, lanes of
    // the lifetime pump exit by cap and quiescence mid-flight and take
    // the next pending round at once. Every cell must still equal the
    // run that decodes each round alone, at every width and thread
    // count.
    WidthGuard guard;
    const SweepConfig config = meshSweep();
    const DecoderFactory alone = [](const SurfaceLattice &lattice,
                                    ErrorType type) {
        return std::unique_ptr<Decoder>(
            std::make_unique<OneLaneTightMesh>(lattice, type));
    };
    const DecoderFactory lanes = [](const SurfaceLattice &lattice,
                                    ErrorType type) {
        return std::unique_ptr<Decoder>(tightMesh(lattice, type));
    };

    std::vector<std::string> expected;
    obs::MetricSet totals;
    {
        Engine engine(options(1));
        const SweepResult result = engine.runSweep(config, alone);
        obs::MetricSet runtime;
        engine.runtimeMetricsInto(runtime);
        EXPECT_EQ(runtime.value("sched.lifetime.groups"),
                  runtime.value("sched.lifetime.lanes"));
        for (const auto &row : result.cells)
            for (const MonteCarloResult &cell : row) {
                expected.push_back(describe(cell));
                totals.merge(cell.metrics);
            }
    }
    // The limits bind: rounds exit by both.
    EXPECT_GT(totals.value("decoder.mesh.cycles_capped"), 0u);
    EXPECT_GT(totals.value("decoder.mesh.quiesced"), 0u);

    for (simd::Width width : kWidths) {
        for (int threads : {1, 3}) {
            simd::setActiveWidth(width);
            SCOPED_TRACE(std::string("width=") + simd::widthName(width) +
                         " threads=" + std::to_string(threads));
            Engine engine(options(threads));
            const SweepResult result = engine.runSweep(config, lanes);
            std::size_t i = 0;
            for (const auto &row : result.cells)
                for (const MonteCarloResult &cell : row) {
                    ASSERT_LT(i, expected.size());
                    EXPECT_EQ(describe(cell), expected[i]) << "cell " << i;
                    ++i;
                }
            EXPECT_EQ(i, expected.size());
            obs::MetricSet runtime;
            engine.runtimeMetricsInto(runtime);
            EXPECT_GT(runtime.value("sched.lifetime.lanes"),
                      runtime.value("sched.lifetime.groups"));
        }
    }
}

TEST(LifetimeLanes, UnionFindCellRunsOneLifetimePerSimulator)
{
    WidthGuard guard;
    const SurfaceLattice lattice(5);
    const auto factory = unionFindDecoderFactory();
    const CellSpec spec = lifetimeCell(lattice, factory, 0.04,
                                       NoiseSpec::dephasing(), 0x0f1dULL);
    for (simd::Width width : kWidths) {
        for (int threads : {1, 3}) {
            simd::setActiveWidth(width);
            SCOPED_TRACE(std::string("width=") + simd::widthName(width) +
                         " threads=" + std::to_string(threads));
            Engine engine(options(threads));
            EXPECT_EQ(describe(engine.runCell(spec)), kUnionFind);
            // Union-find serves one lifetime per simulator.
            obs::MetricSet runtime;
            engine.runtimeMetricsInto(runtime);
            EXPECT_EQ(runtime.value("sched.lifetime.groups"), 10u);
            EXPECT_EQ(runtime.value("sched.lifetime.lanes"), 10u);
        }
    }
}

} // namespace
} // namespace nisqpp
