/**
 * @file
 * Tiered-decoding determinism: the tiered_decode scenario's output and
 * its deterministic decoder.tiered.* counters must be byte-identical
 * at 1 vs 4 threads, and an engine Monte Carlo cell driving the tiered
 * decoder must produce identical aggregates and counters at any
 * batch-lane setting — including with mesh limits tightened through
 * setLimitsForTest so the escalation *and* frame-repair paths are both
 * exercised, not just the agree-with-the-mesh fast path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/mesh_decoder.hh"
#include "decoders/tiered_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "engine/scenario.hh"
#include "engine/sweep.hh"
#include "obs/metrics.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace {

/** Run tiered_decode at @p threads; returns {stdout, report text}. */
std::pair<std::string, std::string>
runTiered(int threads)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("nisqpp_tiered_t" + std::to_string(threads) + ".json");
    RunOptions options;
    options.threads = threads;
    options.trialsScale = 0.02;
    options.seedSet = true;
    options.seed = 0x71e4edULL;
    options.format = OutputFormat::Csv;
    options.metricsOut = path.string();
    std::ostringstream sink;
    EXPECT_EQ(runScenario("tiered_decode", options, sink), 0);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "no report at " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::filesystem::remove(path);
    return {sink.str(), buffer.str()};
}

/** The deterministic slice of a run report (counters + histograms). */
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

TEST(TieredEnv, ScenarioIsThreadCountInvariant)
{
    const auto [out1, report1] = runTiered(1);
    const auto [out4, report4] = runTiered(4);
    EXPECT_FALSE(out1.empty());
    EXPECT_EQ(out1, out4);
    const std::string det1 = deterministicSection(report1);
    EXPECT_EQ(det1, deterministicSection(report4));
    // The tiered counters are present and real.
    EXPECT_NE(det1.find("decoder.tiered.decodes"), std::string::npos);
    EXPECT_NE(det1.find("decoder.tiered.escalations"),
              std::string::npos);
    EXPECT_NE(det1.find("stream.tiered.escalations"),
              std::string::npos);
}

/** Tiered factory with the mesh limits tightened after construction
 * so non-trivial syndromes time out and escalate (forcing repairs). */
DecoderFactory
starvedTieredFactory(double threshold)
{
    return [threshold](const SurfaceLattice &lat, ErrorType type)
               -> std::unique_ptr<Decoder> {
        auto mesh = std::make_unique<MeshDecoder>(lat, type);
        mesh->setLimitsForTest(2, 1);
        return std::make_unique<TieredDecoder>(
            lat, type, std::move(mesh),
            std::make_unique<UnionFindDecoder>(lat, type), threshold);
    };
}

/** Flatten a MetricSet's scalars for whole-set equality checks. */
std::map<std::string, std::uint64_t>
scalarMap(const obs::MetricSet &m)
{
    std::map<std::string, std::uint64_t> out;
    m.forEachScalar([&out](const std::string &name, bool,
                           std::uint64_t value) { out[name] = value; });
    return out;
}

/** One engine cell over the starved tiered decoder. */
std::pair<MonteCarloResult, std::map<std::string, std::uint64_t>>
runCellAt(int threads, std::size_t batchLanes)
{
    SurfaceLattice lattice(5);
    const DecoderFactory factory = starvedTieredFactory(0.5);
    CellSpec cell;
    cell.lattice = &lattice;
    cell.physicalRate = 0.08;
    cell.rule = {600, 600, 1u << 30};
    cell.seed = 0x7143ULL;
    cell.factory = &factory;

    EngineOptions options;
    options.threads = threads;
    options.shardTrials = 128;
    options.batchLanes = batchLanes;
    Engine engine(options);
    const MonteCarloResult result = engine.runCell(cell);
    return {result, scalarMap(engine.metrics())};
}

TEST(TieredEnv, EngineCellInvariantAcrossThreadsAndBatchLanes)
{
    const auto [scalar1, counters1] = runCellAt(1, 1);
    const auto [batch4, counters4] = runCellAt(4, 4);
    const auto [batch64, counters64] = runCellAt(2, 64);

    EXPECT_EQ(scalar1.trials, batch4.trials);
    EXPECT_EQ(scalar1.failures, batch4.failures);
    EXPECT_EQ(scalar1.failures, batch64.failures);
    EXPECT_EQ(counters1, counters4);
    EXPECT_EQ(counters1, counters64);

    // Both forced paths really ran: escalations, disagreements, and
    // the mesh's cap exits all have to show up in the counters.
    EXPECT_GT(counters1.at("decoder.tiered.escalations"), 0u);
    EXPECT_GT(counters1.at("decoder.tiered.repairs"), 0u);
    EXPECT_GT(counters1.at("decoder.mesh.cycles_capped"), 0u);
}

} // namespace
} // namespace nisqpp
