/**
 * @file The checkpoint subsystem's headline guarantee, in process: a
 * sweep interrupted mid-flight and resumed in a fresh engine (at a
 * different thread count) produces aggregates byte-identical to a run
 * that was never interrupted, and a resumed engine refuses ledgers
 * from a different configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
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
            EXPECT_EQ(ca.cycles.count(), cb.cycles.count());
            EXPECT_DOUBLE_EQ(ca.cycles.mean(), cb.cycles.mean());
            EXPECT_DOUBLE_EQ(ca.cycles.variance(),
                             cb.cycles.variance());
            EXPECT_EQ(ca.cycleHistogram.total(),
                      cb.cycleHistogram.total());
            // Deterministic metrics ride the same ordered prefix
            // merge, so a restored partial must reproduce them too.
            EXPECT_EQ(ca.metrics.value("engine.trials"),
                      cb.metrics.value("engine.trials"));
        }
        EXPECT_EQ(a.curves[di].pl, b.curves[di].pl);
    }
}

std::string
ckptPath(const std::string &name)
{
    return testing::TempDir() + "resume_" + name;
}

/** RAII: clear interrupt flag, observer and write fault on exit. */
struct CkptStateGuard
{
    ~CkptStateGuard()
    {
        ckpt::setWriteObserver(nullptr);
        ckpt::clearInterrupt();
        ckpt::setWriteFault({});
    }
};

TEST(CheckpointResume, InterruptedSweepResumesByteIdentical)
{
    CkptStateGuard guard;
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 4;
    base.shardTrials = 128; // 5 shards per cell, 20 total
    const SweepResult golden =
        Engine(base).runSweep(config, factory);

    const std::string path = ckptPath("interrupt.ckpt");
    std::remove(path.c_str());

    // Interrupt at the first write: with intervalShards = 1 the first
    // completed shard always triggers a periodic write while the
    // invocation is still active (contended later writes may be
    // skipped, so a higher trigger count would be racy). The engine
    // drains in-flight shards, persists a final ledger and throws.
    ckpt::CheckpointPolicy policy;
    policy.path = path;
    policy.intervalShards = 1;
    ckpt::setWriteObserver(
        [](std::uint64_t) { ckpt::requestInterrupt(); });
    Engine interrupted(base);
    interrupted.setCheckpointPolicy(policy);
    EXPECT_THROW(interrupted.runSweep(config, factory),
                 ckpt::InterruptedError);
    ckpt::setWriteObserver(nullptr);
    ckpt::clearInterrupt();

    // Resume in a fresh engine at a DIFFERENT thread count; the
    // result must match the uninterrupted golden run bit for bit.
    EngineOptions other = base;
    other.threads = 2;
    Engine resumed(other);
    resumed.setCheckpointPolicy(policy);
    resumed.resumeFrom(ckpt::loadCheckpoint(path));
    expectIdentical(golden, resumed.runSweep(config, factory));

    obs::MetricSet ckptMetrics;
    resumed.checkpointMetricsInto(ckptMetrics);
    EXPECT_EQ(ckptMetrics.value("ckpt.resumed"), 1u);
    EXPECT_GE(ckptMetrics.value("ckpt.writes"), 1u);
    std::remove(path.c_str());
}

TEST(CheckpointResume, CompletedCheckpointRestoresWithoutRecompute)
{
    CkptStateGuard guard;
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 2;
    base.shardTrials = 128;

    const std::string path = ckptPath("complete.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;

    Engine first(base);
    first.setCheckpointPolicy(policy);
    const SweepResult golden = first.runSweep(config, factory);

    Engine second(base);
    second.resumeFrom(ckpt::loadCheckpoint(path));
    std::uint64_t writesDuringResume = 0;
    ckpt::setWriteObserver(
        [&](std::uint64_t) { ++writesDuringResume; });
    expectIdentical(golden, second.runSweep(config, factory));
    // Every invocation was restored complete: nothing is scheduled
    // and nothing is rewritten.
    EXPECT_EQ(writesDuringResume, 0u);

    obs::MetricSet ckptMetrics;
    second.checkpointMetricsInto(ckptMetrics);
    EXPECT_GE(ckptMetrics.value("ckpt.restored_shards"), 20u);
    std::remove(path.c_str());
}

/** Every deterministic counter of every cell, in name order. */
std::string
cellCounters(const SweepResult &result)
{
    std::string out;
    for (const auto &row : result.cells)
        for (const MonteCarloResult &cell : row) {
            cell.metrics.forEachScalar(
                [&out](const std::string &name, bool, std::uint64_t v) {
                    if (!obs::maskedName(name))
                        out += name + '=' + std::to_string(v) + ' ';
                });
            out += '\n';
        }
    return out;
}

TEST(CheckpointResume, LifetimeLanesResumeMidGroup)
{
    // Lifetime cells on the mesh run many shards as lanes of one
    // simulator. 16-round shards give every distance 76 of them, more
    // than any lane pump holds, so an interrupt lands while a group
    // still has shards to claim. The in-flight lanes finish and are
    // persisted; the resumed run (at another thread count) claims the
    // rest and must reproduce results and counters byte for byte.
    CkptStateGuard guard;
    const SweepConfig config = smallSweep();
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 1; // uncontended writes: a deterministic trigger
    base.shardTrials = 16;
    const SweepResult golden = Engine(base).runSweep(config, factory);

    const std::string path = ckptPath("lanes.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;
    policy.intervalShards = 1;
    std::uint64_t writes = 0;
    ckpt::setWriteObserver([&writes](std::uint64_t) {
        if (++writes == 5)
            ckpt::requestInterrupt();
    });
    Engine interrupted(base);
    interrupted.setCheckpointPolicy(policy);
    EXPECT_THROW(interrupted.runSweep(config, factory),
                 ckpt::InterruptedError);
    ckpt::setWriteObserver(nullptr);
    ckpt::clearInterrupt();

    EngineOptions other = base;
    other.threads = 3;
    Engine resumed(other);
    resumed.setCheckpointPolicy(policy);
    resumed.resumeFrom(ckpt::loadCheckpoint(path));
    const SweepResult result = resumed.runSweep(config, factory);
    expectIdentical(golden, result);
    EXPECT_EQ(cellCounters(golden), cellCounters(result));
    EXPECT_NE(cellCounters(golden).find("decoder.mesh.cycles="),
              std::string::npos);

    // The checkpoint held part of the plan: the interrupt landed
    // mid-group, not before the first claim or after the last.
    obs::MetricSet ckptMetrics;
    resumed.checkpointMetricsInto(ckptMetrics);
    const std::uint64_t restored =
        ckptMetrics.value("ckpt.restored_shards");
    EXPECT_GT(restored, 0u);
    EXPECT_LT(restored, 4u * 38u);
    std::remove(path.c_str());
}

TEST(CheckpointResume, ConfigMismatchIsAHardError)
{
    CkptStateGuard guard;
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions base;
    base.threads = 2;
    base.shardTrials = 128;

    const std::string path = ckptPath("mismatch.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;

    Engine writer(base);
    writer.setCheckpointPolicy(policy);
    writer.runSweep(smallSweep(), factory);

    SweepConfig different = smallSweep();
    different.seed = 0xbadfeedULL;
    Engine reader(base);
    reader.resumeFrom(ckpt::loadCheckpoint(path));
    try {
        reader.runSweep(different, factory);
        FAIL() << "mismatched checkpoint applied";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("config mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, OneCallPerCellLedgerIsRefusedByOneRunCells)
{
    // A ledger written as one invocation per cell (two runCell calls)
    // must not resume the same cells planned as one invocation.
    CkptStateGuard guard;
    const DecoderFactory factory = unionFindDecoderFactory();
    const SurfaceLattice lattice(3);
    std::vector<CellSpec> specs(2);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].lattice = &lattice;
        specs[i].physicalRate = 0.03 + 0.02 * i;
        specs[i].rule = {128, 128, 1u << 30};
        specs[i].seed = i + 1;
        specs[i].factory = &factory;
    }
    EngineOptions options;
    options.shardTrials = 64;

    const std::string path = ckptPath("layout.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;
    Engine writer(options);
    writer.setCheckpointPolicy(policy);
    for (const CellSpec &spec : specs)
        writer.runCell(spec);

    Engine reader(options);
    reader.resumeFrom(ckpt::loadCheckpoint(path));
    try {
        reader.runCells(specs);
        FAIL() << "ledger of separate calls resumed one runCells";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "checkpoint config mismatch in invocation 0"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, EngineWritesCanonicalConfigText)
{
    // The engine's cell text is a persisted fingerprint: ledgers on
    // disk are matched against it on resume, so any change to its
    // wording or fields orphans every existing checkpoint.
    CkptStateGuard guard;
    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    const SurfaceLattice lattice(3);

    EngineOptions options;
    options.threads = 1;
    options.shardTrials = 4;

    const std::string path = ckptPath("canonical.ckpt");
    std::remove(path.c_str());
    ckpt::CheckpointPolicy policy;
    policy.path = path;

    CellSpec spec;
    spec.lattice = &lattice;
    spec.physicalRate = 0.05;
    spec.lifetimeMode = true;
    spec.rule = {8, 8, 1u << 30};
    spec.seed = 0x5eedULL;
    spec.factory = &factory;

    Engine engine(options);
    engine.setCheckpointPolicy(policy);
    engine.runCell(spec);

    const ckpt::CheckpointLedger ledger = ckpt::loadCheckpoint(path);
    ASSERT_EQ(ledger.invocations.size(), 1u);
    EXPECT_TRUE(ledger.invocations[0].complete);
    EXPECT_EQ(ledger.invocations[0].configText,
              "shardTrials=4 cells=1 | d=3 p=3fa999999999999a "
              "noise=dephasing eta=4024000000000000 "
              "q=0000000000000000 window=0 circuits=0 lifetime=1 "
              "rule=8/8/1073741824 seed=24301 shards=2");
    std::remove(path.c_str());
}

TEST(CheckpointResume, IncompleteInvocationMustBeLast)
{
    CkptStateGuard guard;
    ckpt::CheckpointLedger ledger;
    ledger.scope = "unit";
    ledger.invocations.resize(2);
    ledger.invocations[0].configText = "a";
    ledger.invocations[0].complete = false;
    ledger.invocations[1].configText = "b";
    ledger.invocations[1].complete = true;

    Engine engine(EngineOptions{});
    try {
        engine.resumeFrom(std::move(ledger));
        FAIL() << "malformed ledger accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(
            std::string(e.what()).find("incomplete but not last"),
            std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace nisqpp
