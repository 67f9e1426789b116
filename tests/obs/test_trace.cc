/**
 * @file
 * TraceSpan/stage-aggregate contract: spans are inert while collection
 * is disabled, aggregate when enabled, render into the masked
 * `timing.span.*` namespace, and the chrome trace capture produces a
 * loadable JSON document.
 */

#include "obs/trace.hh"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hh"

namespace nisqpp::obs {
namespace {

/** Restores the global collection switches and aggregates on exit. */
class TraceEnv : public ::testing::Test
{
  protected:
    void SetUp() override { resetStageTimes(); }

    void TearDown() override
    {
        setTimingCollection(false);
        setTraceCapture(false);
        resetStageTimes();
    }
};

TEST_F(TraceEnv, DisabledSpanRecordsNothing)
{
    ASSERT_FALSE(timingCollection());
    ASSERT_FALSE(traceCapture());
    {
        TraceSpan span(Stage::Decode);
    }
    EXPECT_EQ(stageTiming(Stage::Decode).count, 0u);
    EXPECT_EQ(traceEventCount(), 0u);

    MetricSet out;
    stageTimingInto(out);
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceEnv, EnabledSpanAggregates)
{
    setTimingCollection(true);
    {
        TraceSpan span(Stage::Decode);
    }
    {
        TraceSpan span(Stage::Decode);
    }
    const StageTiming timing = stageTiming(Stage::Decode);
    EXPECT_EQ(timing.count, 2u);
    EXPECT_GE(timing.totalNs, timing.maxNs);
    // Timing-only collection captures no chrome events.
    EXPECT_EQ(traceEventCount(), 0u);
    // Untouched stages stay empty.
    EXPECT_EQ(stageTiming(Stage::Sample).count, 0u);
}

TEST_F(TraceEnv, StageTimingRendersMaskedNames)
{
    setTimingCollection(true);
    {
        TraceSpan span(Stage::StreamDecode);
    }
    setTimingCollection(false);

    MetricSet out;
    stageTimingInto(out);
    EXPECT_EQ(out.value("timing.span.stream_decode.count"), 1u);
    std::ostringstream unmasked;
    out.writeScalarsJson(unmasked, false);
    EXPECT_EQ(unmasked.str(), "{}")
        << "span aggregates must live in the masked namespace";
}

TEST_F(TraceEnv, ChromeTraceIsValidDocument)
{
    setTraceCapture(true);
    {
        TraceSpan span(Stage::Shard);
        TraceSpan inner(Stage::Decode);
    }
    setTraceCapture(false);
    EXPECT_EQ(traceEventCount(), 2u);
    EXPECT_EQ(traceDroppedCount(), 0u);

    std::ostringstream os;
    EXPECT_TRUE(writeChromeTrace(os));
    const std::string doc = os.str();
    EXPECT_EQ(doc.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(doc.find("\"name\":\"decode\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"shard\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);

    // Reset clears the buffer again.
    resetStageTimes();
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST_F(TraceEnv, StageNamesAreStable)
{
    EXPECT_STREQ(stageName(Stage::Sample), "sample");
    EXPECT_STREQ(stageName(Stage::Extract), "extract");
    EXPECT_STREQ(stageName(Stage::Decode), "decode");
    EXPECT_STREQ(stageName(Stage::Classify), "classify");
    EXPECT_STREQ(stageName(Stage::Shard), "shard");
    EXPECT_STREQ(stageName(Stage::StreamProduce), "stream_produce");
    EXPECT_STREQ(stageName(Stage::StreamDecode), "stream_decode");
    EXPECT_STREQ(stageName(Stage::StreamCommit), "stream_commit");
}

} // namespace
} // namespace nisqpp::obs
