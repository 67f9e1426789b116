/**
 * @file Checkpoint format contract: bit-exact round trips, a distinct
 * actionable error per corruption class (truncation, flipped bytes,
 * wrong version), read-only loads, and — via death tests — the atomic
 * temp+fsync+rename write discipline under injected kills and torn
 * writes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hh"

namespace nisqpp {
namespace {

using obs::MetricSet;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** A ledger exercising every field: awkward doubles, sparse histogram
 * bins, counters/gauges/metric histograms, a complete and an
 * incomplete invocation. */
ckpt::CheckpointLedger
makeLedger()
{
    ckpt::CheckpointLedger ledger;
    ledger.scope = "unit_scope";

    ckpt::InvocationLedger inv0;
    inv0.configText = "shardTrials=64 cells=2 | d=3 p=... | d=5 p=...";
    inv0.complete = true;

    ckpt::CellLedger cellA;
    cellA.frontier = 7;
    cellA.stopped = true;
    cellA.partial.trials = 448;
    cellA.partial.failures = 31;
    cellA.partial.syndromeResidualFailures = 4;
    cellA.partial.cycles = RunningStats::fromRaw(
        {448, 1.0 / 3.0, 2.7182818284590452, -0.0, 1.0e-308});
    cellA.partial.cycleHistogram =
        Histogram::fromParts({0, 12, 0, 0, 99, 1}, 3);
    cellA.partial.metrics.add("engine.trials", 448);
    cellA.partial.metrics.add("decoder.mesh.rounds", 12345678901ULL);
    cellA.partial.metrics.maxGauge("decoder.mesh.peak", 17);
    cellA.partial.metrics.record("decoder.mesh.growth", 3, 8);
    cellA.partial.metrics.record("decoder.mesh.growth", 9, 8);
    cellA.partial.finalize();

    ckpt::CellLedger cellB;
    cellB.frontier = 2;
    cellB.stopped = false;
    cellB.partial.trials = 128;
    cellB.partial.failures = 0;
    cellB.partial.cycles =
        RunningStats::fromRaw({128, 0.1, 123.456, 0.25, 1.0e17});
    cellB.partial.cycleHistogram = Histogram::fromParts({128, 0}, 0);
    cellB.partial.finalize();

    inv0.cells = {cellA, cellB};

    ckpt::InvocationLedger inv1;
    inv1.configText = "shardTrials=64 cells=1 | d=7 p=...";
    inv1.complete = false;
    ckpt::CellLedger cellC;
    cellC.frontier = 0;
    cellC.partial.finalize();
    inv1.cells = {cellC};

    ledger.invocations = {inv0, inv1};
    return ledger;
}

void
expectSameCell(const ckpt::CellLedger &a, const ckpt::CellLedger &b)
{
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_EQ(a.stopped, b.stopped);
    const MonteCarloResult &ra = a.partial;
    const MonteCarloResult &rb = b.partial;
    EXPECT_EQ(ra.trials, rb.trials);
    EXPECT_EQ(ra.failures, rb.failures);
    EXPECT_EQ(ra.syndromeResidualFailures, rb.syndromeResidualFailures);
    // Derived fields are recomputed by finalize(), never serialized;
    // for finalized inputs they must still agree bit for bit.
    EXPECT_EQ(bits(ra.logicalErrorRate), bits(rb.logicalErrorRate));
    const RunningStatsRaw sa = ra.cycles.raw();
    const RunningStatsRaw sb = rb.cycles.raw();
    EXPECT_EQ(sa.n, sb.n);
    EXPECT_EQ(bits(sa.mean), bits(sb.mean));
    EXPECT_EQ(bits(sa.m2), bits(sb.m2));
    EXPECT_EQ(bits(sa.min), bits(sb.min));
    EXPECT_EQ(bits(sa.max), bits(sb.max));
    ASSERT_EQ(ra.cycleHistogram.numBins(), rb.cycleHistogram.numBins());
    EXPECT_EQ(ra.cycleHistogram.total(), rb.cycleHistogram.total());
    EXPECT_EQ(ra.cycleHistogram.overflow(),
              rb.cycleHistogram.overflow());
    for (std::size_t i = 0; i < ra.cycleHistogram.numBins(); ++i)
        EXPECT_EQ(ra.cycleHistogram.bin(i), rb.cycleHistogram.bin(i));
}

void
expectSameLedger(const ckpt::CheckpointLedger &a,
                 const ckpt::CheckpointLedger &b)
{
    EXPECT_EQ(a.scope, b.scope);
    ASSERT_EQ(a.invocations.size(), b.invocations.size());
    for (std::size_t i = 0; i < a.invocations.size(); ++i) {
        EXPECT_EQ(a.invocations[i].configText,
                  b.invocations[i].configText);
        EXPECT_EQ(a.invocations[i].complete, b.invocations[i].complete);
        ASSERT_EQ(a.invocations[i].cells.size(),
                  b.invocations[i].cells.size());
        for (std::size_t j = 0; j < a.invocations[i].cells.size(); ++j)
            expectSameCell(a.invocations[i].cells[j],
                           b.invocations[i].cells[j]);
    }
}

std::string
serializeToText(const ckpt::CheckpointLedger &ledger)
{
    std::ostringstream os;
    ckpt::serializeLedger(os, ledger);
    return os.str();
}

ckpt::CheckpointLedger
deserializeFromText(const std::string &text)
{
    std::istringstream is(text);
    return ckpt::deserializeLedger(is);
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "ckpt_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
spill(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

TEST(CheckpointFormat, RoundTripIsBitExact)
{
    const ckpt::CheckpointLedger ledger = makeLedger();
    const ckpt::CheckpointLedger back =
        deserializeFromText(serializeToText(ledger));
    expectSameLedger(ledger, back);

    const MetricSet &m = back.invocations[0].cells[0].partial.metrics;
    EXPECT_EQ(m.value("engine.trials"), 448u);
    EXPECT_EQ(m.value("decoder.mesh.rounds"), 12345678901ULL);
    EXPECT_EQ(m.value("decoder.mesh.peak"), 17u);
    const MetricSet::HistogramEntry *h =
        m.histogram("decoder.mesh.growth");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->sum, 12u);
    EXPECT_EQ(h->hist.bin(3), 1u);
    EXPECT_EQ(h->hist.overflow(), 1u);
}

TEST(CheckpointFormat, SerializationIsCanonical)
{
    // Serialize → parse → serialize must be a fixed point, so resumed
    // runs rewrite the file they read without gratuitous churn.
    const std::string once = serializeToText(makeLedger());
    EXPECT_EQ(once, serializeToText(deserializeFromText(once)));
}

TEST(CheckpointFormat, MaskedMetricsAreExcluded)
{
    ckpt::CheckpointLedger ledger = makeLedger();
    MetricSet &m = ledger.invocations[0].cells[0].partial.metrics;
    m.add("timing.span.decode.count", 7);
    m.add("sched.pool.steals", 3);
    m.add("ckpt.writes", 5);

    const ckpt::CheckpointLedger back =
        deserializeFromText(serializeToText(ledger));
    const MetricSet &r = back.invocations[0].cells[0].partial.metrics;
    EXPECT_EQ(r.value("timing.span.decode.count"), 0u);
    EXPECT_EQ(r.value("sched.pool.steals"), 0u);
    EXPECT_EQ(r.value("ckpt.writes"), 0u);
    EXPECT_EQ(r.value("engine.trials"), 448u);
}

TEST(CheckpointFormat, TruncationIsADistinctError)
{
    const std::string good = serializeToText(makeLedger());
    const std::string cut = good.substr(0, good.size() / 2);
    try {
        deserializeFromText(cut);
        FAIL() << "truncated checkpoint parsed";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointFormat, FlippedByteIsAChecksumError)
{
    std::string text = serializeToText(makeLedger());
    // Flip one digit inside the first result line; the section
    // checksum must catch it before any content is trusted.
    const std::size_t at = text.find("\nr ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t pos = at + 3;
    text[pos] = text[pos] == '9' ? '8' : '9';
    try {
        deserializeFromText(text);
        FAIL() << "corrupted checkpoint parsed";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointFormat, HeaderCorruptionIsAChecksumError)
{
    std::string text = serializeToText(makeLedger());
    const std::size_t pos = text.find("scope ");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 6] = 'X';
    try {
        deserializeFromText(text);
        FAIL() << "corrupted header parsed";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(
            std::string(e.what()).find("header checksum mismatch"),
            std::string::npos)
            << e.what();
    }
}

TEST(CheckpointFormat, WrongVersionIsADistinctError)
{
    std::string text = serializeToText(makeLedger());
    ASSERT_EQ(text.rfind("nisqpp-ckpt 1\n", 0), 0u);
    text.replace(0, 13, "nisqpp-ckpt 2");
    try {
        deserializeFromText(text);
        FAIL() << "future-version checkpoint parsed";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported checkpoint version 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointFile, WriteThenLoadRoundTrips)
{
    const std::string path = tempPath("roundtrip.ckpt");
    const ckpt::CheckpointLedger ledger = makeLedger();
    ckpt::writeCheckpoint(path, ledger);
    expectSameLedger(ledger, ckpt::loadCheckpoint(path));
    std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileIsAClearError)
{
    try {
        ckpt::loadCheckpoint(tempPath("no_such_file.ckpt"));
        FAIL() << "missing checkpoint loaded";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open checkpoint"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CheckpointFile, FailedLoadLeavesTheFileUntouched)
{
    // Corruption detection must be read-only: the operator inspects
    // (or restores) the original bytes after the error.
    const std::string path = tempPath("corrupt.ckpt");
    std::string text = serializeToText(makeLedger());
    text[text.size() / 2] ^= 0x20;
    spill(path, text);
    EXPECT_THROW(ckpt::loadCheckpoint(path), ckpt::CheckpointError);
    EXPECT_EQ(slurp(path), text);
    std::remove(path.c_str());
}

TEST(CheckpointFile, WriteObserverSeesEveryWrite)
{
    const std::string path = tempPath("observer.ckpt");
    std::uint64_t calls = 0;
    ckpt::setWriteObserver([&](std::uint64_t) { ++calls; });
    ckpt::writeCheckpoint(path, makeLedger());
    ckpt::writeCheckpoint(path, makeLedger());
    ckpt::setWriteObserver(nullptr);
    ckpt::writeCheckpoint(path, makeLedger());
    EXPECT_EQ(calls, 2u);
    std::remove(path.c_str());
}

/** Death tests: the injector terminates the process by design. */
using CheckpointFaultDeathTest = ::testing::Test;

TEST(CheckpointFaultDeathTest, KillCompletesTheWriteThenExits)
{
    const std::string path = tempPath("kill.ckpt");
    std::remove(path.c_str());
    const ckpt::CheckpointLedger ledger = makeLedger();
    EXPECT_EXIT(
        {
            ckpt::setWriteFault({ckpt::WriteFault::Mode::Kill, 1});
            ckpt::writeCheckpoint(path, ledger);
        },
        ::testing::ExitedWithCode(ckpt::kExitFaultInjected), "");
    // Kill mode fires after the rename: the file the dead process
    // leaves behind is complete and loadable.
    expectSameLedger(ledger, ckpt::loadCheckpoint(path));
    std::remove(path.c_str());
}

TEST(CheckpointFaultDeathTest, TornWriteNeverReachesTheFile)
{
    const std::string path = tempPath("tear.ckpt");
    const ckpt::CheckpointLedger original = makeLedger();
    ckpt::writeCheckpoint(path, original);
    const std::string goodBytes = slurp(path);

    ckpt::CheckpointLedger bigger = original;
    bigger.invocations[1].complete = true;
    EXPECT_EXIT(
        {
            ckpt::setWriteFault({ckpt::WriteFault::Mode::Tear, 1});
            ckpt::writeCheckpoint(path, bigger);
        },
        ::testing::ExitedWithCode(ckpt::kExitFaultInjected), "");
    // Tear mode dies mid-payload before the rename: the previous good
    // checkpoint is byte-identical, and only the temp file is torn.
    EXPECT_EQ(slurp(path), goodBytes);
    expectSameLedger(original, ckpt::loadCheckpoint(path));
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

} // namespace
} // namespace nisqpp
