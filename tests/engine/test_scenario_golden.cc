/**
 * @file Golden-value regression net over the whole scenario registry:
 * every registered scenario runs at a small pinned seed/budget and its
 * CSV output is compared against a checked-in golden file, so any
 * refactor that silently changes the physics fails CI. Host-timing
 * columns (wall-clock throughput) and build-type markers are masked
 * before comparison; numeric cells tolerate sub-0.2% formatting jitter
 * (libm/FMA last-ulp differences across toolchains) while integer
 * counts — trials, failures, backlog rounds — must match exactly.
 *
 * Regenerate after an intentional physics change with:
 *   NISQPP_UPDATE_GOLDEN=1 ctest --test-dir build -R Golden
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/scenario.hh"
#include "support/scoped_env.hh"

#ifndef NISQPP_GOLDEN_DIR
#error "build must define NISQPP_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace nisqpp {
namespace {

/** Columns whose values depend on the host's wall clock. */
const std::vector<std::string> kMaskedColumns{
    "host ms", "trials/s", "ns/decode"};

/** Row keys whose values depend on the build type, not the physics. */
const std::vector<std::string> kMaskedRowKeys{"assertions"};

/** What a masked cell reads after sanitize(). */
const std::string kMask = "-";

std::filesystem::path
goldenPath(const std::string &scenario)
{
    return std::filesystem::path(NISQPP_GOLDEN_DIR) /
           (scenario + ".golden.csv");
}

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream is(line);
    while (std::getline(is, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    return cells;
}

std::string
joinCells(const std::vector<std::string> &cells)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            line += ',';
        line += cells[i];
    }
    return line;
}

/**
 * Replace host-timing and build-marker cells with "-" so the golden
 * comparison only sees deterministic physics output.
 */
std::string
sanitize(const std::string &csv)
{
    std::istringstream is(csv);
    std::ostringstream os;
    std::string line;
    std::vector<std::size_t> masked; // column indices of current table
    bool expectHeader = false;
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] == '#') {
            expectHeader = true; // next line is the table header
            masked.clear();
            os << line << '\n';
            continue;
        }
        std::vector<std::string> cells = splitCells(line);
        if (expectHeader) {
            expectHeader = false;
            for (std::size_t c = 0; c < cells.size(); ++c) {
                for (const std::string &name : kMaskedColumns)
                    if (cells[c] == name)
                        masked.push_back(c);
                // Whole masked metric namespaces: any column carrying
                // a timing.* span summary or sched.* pool counter is
                // host wall clock by definition and must never be
                // golden-compared.
                if (cells[c].rfind("timing.", 0) == 0 ||
                    cells[c].rfind("sched.", 0) == 0)
                    masked.push_back(c);
            }
            os << line << '\n';
            continue;
        }
        for (std::size_t c : masked)
            if (c < cells.size())
                cells[c] = kMask;
        if (!cells.empty())
            for (const std::string &key : kMaskedRowKeys)
                if (cells[0] == key)
                    std::fill(cells.begin() + 1, cells.end(), kMask);
        os << joinCells(cells) << '\n';
    }
    return os.str();
}

bool
parseNumber(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

/** Digits only (optional sign): a count, pinned exactly. */
bool
isIntegerLiteral(const std::string &text)
{
    if (text.empty())
        return false;
    std::size_t i = (text[0] == '-' || text[0] == '+') ? 1 : 0;
    if (i == text.size())
        return false;
    for (; i < text.size(); ++i)
        if (text[i] < '0' || text[i] > '9')
            return false;
    return true;
}

/**
 * Cells match when the strings are equal, or when both are
 * *fractional* numbers within 0.2% (printing jitter from last-ulp
 * libm/FMA differences across toolchains). Integer literals — trials,
 * failures, backlog rounds, queue depths — get no tolerance: any
 * count drift is a physics change and must fail.
 */
bool
cellsMatch(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    if (isIntegerLiteral(a) || isIntegerLiteral(b))
        return false;
    double va = 0.0, vb = 0.0;
    if (!parseNumber(a, va) || !parseNumber(b, vb))
        return false;
    const double scale = std::max(std::abs(va), std::abs(vb));
    return std::abs(va - vb) <= std::max(1e-9, 2e-3 * scale);
}

/** The pinned run configuration of every golden entry. */
RunOptions
goldenOptions()
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

class ScenarioGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(ScenarioGolden, OutputMatchesGolden)
{
    const std::string name = GetParam();

    std::ostringstream os;
    ASSERT_EQ(runScenario(name, goldenOptions(), os), 0);
    const std::string actual = sanitize(os.str());

    const std::filesystem::path path = goldenPath(name);
    if (std::getenv("NISQPP_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        SUCCEED() << "golden regenerated: " << path;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "scenario '" << name << "' has no golden entry at " << path
        << "; every registered scenario must have one (regenerate "
           "with NISQPP_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string expected = sanitize(buffer.str());

    std::istringstream as(actual), es(expected);
    std::string aline, eline;
    std::size_t lineNo = 0;
    while (true) {
        const bool aMore = static_cast<bool>(std::getline(as, aline));
        const bool eMore = static_cast<bool>(std::getline(es, eline));
        ++lineNo;
        ASSERT_EQ(aMore, eMore)
            << "line count diverges at line " << lineNo << " of "
            << path;
        if (!aMore)
            break;
        const auto aCells = splitCells(aline);
        const auto eCells = splitCells(eline);
        ASSERT_EQ(aCells.size(), eCells.size())
            << "arity diverges at line " << lineNo << "\n  golden: "
            << eline << "\n  actual: " << aline;
        for (std::size_t c = 0; c < aCells.size(); ++c)
            EXPECT_TRUE(cellsMatch(aCells[c], eCells[c]))
                << "cell " << c << " at line " << lineNo
                << "\n  golden: " << eline << "\n  actual: " << aline;
    }
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
    AllScenarios, ScenarioGolden,
    ::testing::ValuesIn(registeredScenarioNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(ScenarioGoldenRegistry, EveryScenarioHasGoldenEntry)
{
    // A scenario registered without a golden file fails here even
    // before its parameterized comparison runs.
    for (const Scenario &s : scenarioRegistry())
        EXPECT_TRUE(std::filesystem::exists(goldenPath(s.name)))
            << "scenario '" << s.name
            << "' is registered but has no golden entry; run with "
               "NISQPP_UPDATE_GOLDEN=1 to create "
            << goldenPath(s.name);
}

TEST(ScenarioGoldenMasking, TimingNamespaceColumnsAreMasked)
{
    // A table that sneaks wall-clock metrics into its header must come
    // out of sanitize() with those cells blanked — otherwise the first
    // scenario to print a timing.* column would turn the golden net
    // flaky.
    const std::string csv =
        "# leaky\n"
        "decoder,timing.span.decode.total_ns,PL,sched.pool.steals\n"
        "union_find,123456,0.5,7\n";
    const std::string expected =
        "# leaky\n"
        "decoder,timing.span.decode.total_ns,PL,sched.pool.steals\n"
        "union_find,-,0.5,-\n";
    EXPECT_EQ(sanitize(csv), expected);
}

TEST(ScenarioGoldenMasking, GoldenFilesAreSanitizeFixedPoints)
{
    // Checked-in goldens are written from sanitized output, so every
    // masked cell is already "-". A golden that sanitize() would still
    // change carries an unmasked wall-clock field — committed by hand
    // or through a masking gap — and must be regenerated.
    for (const Scenario &s : scenarioRegistry()) {
        std::ifstream in(goldenPath(s.name));
        if (!in.good())
            continue; // missing entries fail EveryScenarioHasGoldenEntry
        std::stringstream buffer;
        buffer << in.rdbuf();
        EXPECT_EQ(sanitize(buffer.str()), buffer.str())
            << "golden for '" << s.name
            << "' contains unmasked host-timing cells";
    }
}

TEST(ScenarioGoldenMasking, SanitizedOutputIsRunToRunStable)
{
    // Leak detector: run every scenario twice and require the
    // sanitized outputs to match byte for byte. Any wall-clock or
    // scheduling value printed outside the masked columns differs
    // between the runs and fails here deterministically (instead of
    // intermittently against the golden).
    for (const Scenario &s : scenarioRegistry()) {
        std::ostringstream first, second;
        ASSERT_EQ(runScenario(s.name, goldenOptions(), first), 0);
        ASSERT_EQ(runScenario(s.name, goldenOptions(), second), 0);
        EXPECT_EQ(sanitize(first.str()), sanitize(second.str()))
            << "scenario '" << s.name
            << "' leaks host-dependent values past the column masks";
    }
}

TEST(ScenarioGoldenEnv, InProcessRunsIgnoreTheEnvironment)
{
    // Every env knob set to a valid non-default value: only the CLI's
    // parseArgs reads them, so runScenario's output is still the
    // golden, byte for byte.
    const ScopedEnv trials("NISQPP_TRIALS", "3");
    const ScopedEnv batch("NISQPP_BATCH", "64");
    const ScopedEnv simd("NISQPP_SIMD", "scalar");
    const ScopedEnv interval("NISQPP_CKPT_INTERVAL", "2");
    const ScopedEnv faults("NISQPP_STREAM_FAULTS", "drop=0.5,seed=9");
    const ScopedEnv inject("NISQPP_FAULT_INJECT", "kill-after=1");
    for (const char *name : {"table5_fit", "noise_zoo", "fault_sweep"}) {
        std::ostringstream os;
        ASSERT_EQ(runScenario(name, goldenOptions(), os), 0) << name;
        std::ifstream in(goldenPath(name));
        std::stringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(sanitize(os.str()), golden.str()) << name;
    }
}

TEST(ScenarioGoldenRegistry, NoOrphanGoldenFiles)
{
    // Stale golden files (for renamed/removed scenarios) rot silently;
    // flag them so the net stays exactly the registry.
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(NISQPP_GOLDEN_DIR))) {
        const std::string file = entry.path().filename().string();
        const std::string suffix = ".golden.csv";
        if (file.size() <= suffix.size() ||
            file.substr(file.size() - suffix.size()) != suffix)
            continue;
        const std::string name =
            file.substr(0, file.size() - suffix.size());
        EXPECT_NE(findScenario(name), nullptr)
            << "golden file " << file
            << " has no registered scenario; delete it or restore "
               "the scenario";
    }
}

} // namespace
} // namespace nisqpp
