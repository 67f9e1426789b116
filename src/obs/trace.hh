/**
 * @file
 * Scoped stage timers for the hot pipeline stages plus an optional
 * chrome://tracing event capture. TraceSpan costs one relaxed atomic
 * load and a predictable branch when collection is disabled, so the
 * instrumentation can stay compiled into the hot paths permanently.
 *
 * Aggregation is process-global: each stage keeps atomic count /
 * total-ns / max-ns plus log2(ns) bins, and stageTimingInto() renders
 * the aggregate into `timing.span.*` metrics — a masked namespace,
 * because everything here is host wall clock. The chrome trace buffer
 * is bounded; events past the cap are counted and dropped.
 */

#ifndef NISQPP_OBS_TRACE_HH
#define NISQPP_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace nisqpp::obs {

class MetricSet;

/** Pipeline stages wrapped by TraceSpan across the codebase. */
enum class Stage : int {
    Sample,        ///< noise-model sampling (LifetimeSimulator)
    Extract,       ///< syndrome extraction
    Decode,        ///< decoder invocation
    Classify,      ///< residual-error classification
    Shard,         ///< whole-shard execution in the engine
    StreamProduce, ///< syndrome emission in runStream
    StreamDecode,  ///< decode call in runStream
    StreamCommit,  ///< correction apply + parity in runStream
    StreamRecover, ///< transport-fault recovery in runStream
    UfGrow,        ///< union-find cluster growth, per decode
    UfPeel,        ///< union-find erasure peel and rewind, per decode
    Count
};

/** Stable lowercase name used in metric names and trace events. */
const char *stageName(Stage stage);

/** Master switch for span aggregation (off by default). */
void setTimingCollection(bool enabled);
bool timingCollection();

/** Switch for chrome trace event capture (off by default). */
void setTraceCapture(bool enabled);
bool traceCapture();

/** Clear every stage aggregate and the trace event buffer. */
void resetStageTimes();

namespace detail {
extern std::atomic<bool> g_timing;
extern std::atomic<bool> g_trace;
void recordSpan(Stage stage, std::uint64_t startNs,
                std::uint64_t endNs);
std::uint64_t nowNs();
} // namespace detail

/**
 * RAII stage timer. Construct at stage entry; the destructor folds
 * the elapsed time into the stage aggregate and, when trace capture
 * is on, appends a chrome trace event.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(Stage stage) : stage_(stage)
    {
        if (detail::g_timing.load(std::memory_order_relaxed) ||
            detail::g_trace.load(std::memory_order_relaxed))
            startNs_ = detail::nowNs();
    }

    ~TraceSpan()
    {
        if (startNs_)
            detail::recordSpan(stage_, startNs_, detail::nowNs());
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    Stage stage_;
    std::uint64_t startNs_ = 0;
};

/** One stage's aggregate since the last resetStageTimes(). */
struct StageTiming
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t maxNs = 0;
    std::uint64_t p50Ns = 0; ///< upper bound of the median log2 bin
    std::uint64_t p99Ns = 0; ///< upper bound of the p99 log2 bin
};

StageTiming stageTiming(Stage stage);

/**
 * Render every nonzero stage aggregate into @p out as
 * `timing.span.<stage>.{count,total_ns,max_ns,p50_ns,p99_ns}`.
 */
void stageTimingInto(MetricSet &out);

/** Number of captured (resp. dropped past the cap) trace events. */
std::size_t traceEventCount();
std::size_t traceDroppedCount();

/**
 * Write the captured events as a chrome://tracing JSON document
 * (load via chrome://tracing or https://ui.perfetto.dev). Returns
 * false when the stream is bad after the final write + flush (ENOSPC,
 * short write): the dump is truncated and the caller must report it.
 */
[[nodiscard]] bool writeChromeTrace(std::ostream &os);

} // namespace nisqpp::obs

#endif // NISQPP_OBS_TRACE_HH
