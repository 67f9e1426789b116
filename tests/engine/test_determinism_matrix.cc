/**
 * @file The determinism contract over every registered scenario: the
 * sanitized CSV and the run report's deterministic sections
 * ("counters", "histograms") are byte-identical across thread counts,
 * decode-group sizes, SIMD widths, their mix, and an interrupted run
 * resumed from its checkpoint. The same binary needs no tolerance, so
 * every mode must match the base run exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "engine/scenario.hh"
#include "support/golden_csv.hh"

namespace nisqpp {
namespace {

/** What a mode must reproduce: the sanitized CSV and the report. */
struct Outputs
{
    std::string csv;
    std::string report; ///< "counters" and "histograms" sections
};

/** The golden suite's pinned configuration. */
RunOptions
baseOptions()
{
    RunOptions options;
    options.threads = 1;
    options.shardTrials = 512;
    options.trialsScale = 0.02;
    options.seedSet = true;
    options.seed = 0x601dULL;
    options.format = OutputFormat::Csv;
    return options;
}

std::string
tempPath(const std::string &scenario, const std::string &what)
{
    return testing::TempDir() + "matrix_" + scenario + "_" + what;
}

/**
 * Mask the rows that echo the run's own thread count and batch size
 * (micro_hotpath's environment table): like the report's "config"
 * object, they state the mode, not a result of it.
 */
std::string
maskModeEcho(const std::string &csv)
{
    std::istringstream is(csv);
    std::string out, line;
    while (std::getline(is, line)) {
        for (const char *key : {"threads,", "batch_lanes,"})
            if (line.rfind(key, 0) == 0)
                line = std::string(key) + "-";
        out += line + '\n';
    }
    return out;
}

/** Restores the SIMD width and clears the checkpoint hooks on exit. */
struct ProcessStateGuard
{
    simd::Width width = simd::activeWidth();

    ~ProcessStateGuard()
    {
        simd::setActiveWidth(width);
        ckpt::setWriteObserver(nullptr);
        ckpt::clearInterrupt();
    }
};

/**
 * Run @p scenario with @p options (at SIMD width @p width) and a run
 * report; @p rc is the exit code it must return.
 */
Outputs
run(const std::string &scenario, RunOptions options, simd::Width width,
    int rc = 0)
{
    const ProcessStateGuard guard;
    simd::setActiveWidth(width);
    options.metricsOut = tempPath(scenario, "report.json");
    std::ostringstream os;
    EXPECT_EQ(runScenario(scenario, options, os), rc) << scenario;
    Outputs out;
    out.csv = maskModeEcho(sanitize(os.str()));
    std::ifstream in(options.metricsOut);
    std::stringstream report;
    report << in.rdbuf();
    in.close();
    std::filesystem::remove(options.metricsOut);
    const std::string text = report.str();
    const std::size_t begin = text.find("\"counters\":");
    const std::size_t end = text.rfind(",\"timing\":");
    if (rc == 0) {
        EXPECT_NE(begin, std::string::npos) << scenario;
        EXPECT_NE(end, std::string::npos) << scenario;
    }
    if (begin != std::string::npos && end != std::string::npos)
        out.report = text.substr(begin, end - begin);
    return out;
}

void
expectSame(const Outputs &base, const Outputs &mode,
           const std::string &label)
{
    EXPECT_EQ(base.csv, mode.csv) << label << ": CSV differs";
    EXPECT_EQ(base.report, mode.report)
        << label << ": run-report counters/histograms differ";
}

class DeterminismMatrix : public ::testing::TestWithParam<std::string>
{};

TEST_P(DeterminismMatrix, EveryModeMatchesTheBaseRun)
{
    const std::string name = GetParam();
    const simd::Width native = simd::detectWidth();
    const Outputs base = run(name, baseOptions(), native);
    ASSERT_FALSE(base.csv.empty());
    ASSERT_FALSE(base.report.empty());

    RunOptions threads4 = baseOptions();
    threads4.threads = 4;
    expectSame(base, run(name, threads4, native), "4 threads");

    RunOptions batch64 = baseOptions();
    batch64.batchLanes = 64;
    expectSame(base, run(name, batch64, native), "batch 64");

    // The base runs at the widest width the host supports, this mode
    // at the narrowest, and the mix at v256.
    expectSame(base, run(name, baseOptions(), simd::Width::Scalar),
               "simd scalar");

    RunOptions mix = baseOptions();
    mix.threads = 3;
    mix.batchLanes = 7;
    expectSame(base, run(name, mix, simd::Width::V256),
               "3 threads, batch 7, v256");

    // Checkpointed at every shard: the uninterrupted run matches too,
    // and tells whether the scenario writes enough checkpoints to be
    // interrupted between two of them.
    const std::string ckptFile = tempPath(name, "run.ckpt");
    std::remove(ckptFile.c_str());
    RunOptions checkpointed = baseOptions();
    checkpointed.checkpointPath = ckptFile;
    checkpointed.checkpointInterval = 1;
    checkpointed.checkpointIntervalSet = true;
    std::uint64_t writes = 0;
    {
        const ProcessStateGuard guard;
        ckpt::setWriteObserver([&writes](std::uint64_t) { ++writes; });
        expectSame(base, run(name, checkpointed, native), "checkpointed");
    }
    std::remove(ckptFile.c_str());
    if (writes < 2)
        return;

    // Interrupt at the second write, then resume at another thread
    // count from the ledger the interrupted run left.
    {
        const ProcessStateGuard guard;
        std::uint64_t seen = 0;
        ckpt::setWriteObserver([&seen](std::uint64_t) {
            if (++seen == 2)
                ckpt::requestInterrupt();
        });
        run(name, checkpointed, native, ckpt::kExitInterrupted);
    }
    RunOptions resumed = baseOptions();
    resumed.threads = 4;
    resumed.resumePath = ckptFile;
    resumed.checkpointInterval = 1;
    resumed.checkpointIntervalSet = true;
    expectSame(base, run(name, resumed, native), "interrupted + resumed");
    std::remove(ckptFile.c_str());
}

std::vector<std::string>
registeredScenarioNames()
{
    std::vector<std::string> names;
    for (const Scenario &s : scenarioRegistry())
        names.push_back(s.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, DeterminismMatrix,
    ::testing::ValuesIn(registeredScenarioNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace nisqpp
