/**
 * @file
 * Thread-count invariance of the metrics subsystem: the deterministic
 * sections of a --metrics-out run report ("counters" and "histograms")
 * must be byte-identical between a 1-thread and an N-thread run at a
 * fixed seed, because shard metric sets ride the engine's ordered
 * prefix merge exactly like the Monte Carlo aggregates. Also pins the
 * sched.pool.steals == 0 guarantee of 1-thread pools at the engine
 * level.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/scenario.hh"
#include "obs/metrics.hh"

namespace nisqpp {
namespace {

/** Run @p scenario with --metrics-out and return the report text. */
std::string
reportFor(const std::string &scenario, int threads)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("nisqpp_metrics_" + scenario + "_t" +
         std::to_string(threads) + ".json");
    RunOptions options;
    options.threads = threads;
    options.shardTrials = 512;
    options.trialsScale = 0.02;
    options.seedSet = true;
    options.seed = 0x601dULL;
    options.format = OutputFormat::Csv;
    options.metricsOut = path.string();
    std::ostringstream sink;
    EXPECT_EQ(runScenario(scenario, options, sink), 0);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "no report at " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::filesystem::remove(path);
    return buffer.str();
}

/**
 * The deterministic slice of a report: everything from the "counters"
 * key up to (excluding) the masked "timing" section. The preceding
 * "config" object legitimately differs (it records the thread count).
 */
std::string
deterministicSection(const std::string &report)
{
    const std::size_t begin = report.find("\"counters\":");
    const std::size_t end = report.rfind(",\"timing\":");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    EXPECT_LT(begin, end);
    return report.substr(begin, end - begin);
}

TEST(MetricsEnv, EngineCountersAreThreadCountInvariant)
{
    // fig10_final drives full sharded Monte Carlo sweeps (mesh decoder
    // work counters, engine trial counters) through the report path.
    const std::string t1 = deterministicSection(reportFor(
        "fig10_final", 1));
    const std::string t4 = deterministicSection(reportFor(
        "fig10_final", 4));
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t4);
    // Real content, not an empty object.
    EXPECT_NE(t1.find("engine.trials"), std::string::npos);
    EXPECT_NE(t1.find("decoder.mesh.decodes"), std::string::npos);
}

TEST(MetricsEnv, StreamCountersAreThreadCountInvariant)
{
    // fig06_runtime folds per-cell streaming metrics (stream.* plus
    // the per-cell decoders' exports) through runJobs.
    const std::string t1 = deterministicSection(reportFor(
        "fig06_runtime", 1));
    const std::string t3 = deterministicSection(reportFor(
        "fig06_runtime", 3));
    EXPECT_EQ(t1, t3);
    EXPECT_NE(t1.find("stream.rounds"), std::string::npos);
    EXPECT_NE(t1.find("decoder.uf.decodes"), std::string::npos);
}

TEST(MetricsEnv, SingleThreadReportsZeroSteals)
{
    // The masked section still has a pinned invariant at one thread:
    // no victim exists, so the pool must report zero steals.
    Engine engine(EngineOptions{});
    ASSERT_EQ(engine.threads(), 1);
    obs::MetricSet runtime;
    engine.runtimeMetricsInto(runtime);
    EXPECT_EQ(runtime.value("sched.pool.steals"), 0u);
    EXPECT_EQ(runtime.value("sched.pool.threads"), 1u);
}

} // namespace
} // namespace nisqpp
