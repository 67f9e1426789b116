#include "obs/trace.hh"

#include <chrono>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/metrics.hh"

namespace nisqpp::obs {

namespace detail {
std::atomic<bool> g_timing{false};
std::atomic<bool> g_trace{false};
} // namespace detail

namespace {

constexpr int kStageCount = static_cast<int>(Stage::Count);

/** log2(ns) bins: bin b holds durations in [2^b, 2^(b+1)) ns. */
constexpr int kLogBins = 40;

struct StageAgg
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> totalNs{0};
    std::atomic<std::uint64_t> maxNs{0};
    std::atomic<std::uint64_t> bins[kLogBins]{};
};

StageAgg g_agg[kStageCount];

struct TraceEvent
{
    Stage stage;
    std::uint64_t startNs;
    std::uint64_t durNs;
    int tid;
};

constexpr std::size_t kMaxTraceEvents = 1u << 20;

std::mutex g_traceMutex;
std::vector<TraceEvent> g_events;
std::size_t g_dropped = 0;

std::atomic<int> g_nextTid{0};

int
traceTid()
{
    thread_local int tid = g_nextTid.fetch_add(1);
    return tid;
}

int
log2Bin(std::uint64_t ns)
{
    int bin = 0;
    while (ns > 1 && bin < kLogBins - 1) {
        ns >>= 1;
        ++bin;
    }
    return bin;
}

void
atomicMax(std::atomic<std::uint64_t> &slot, std::uint64_t value)
{
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
}

/** Upper bound of the first bin whose cumulative mass reaches q. */
std::uint64_t
percentileUpperBound(const StageAgg &agg, double q)
{
    const std::uint64_t total =
        agg.count.load(std::memory_order_relaxed);
    if (total == 0)
        return 0;
    const double target = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kLogBins; ++b) {
        cumulative += agg.bins[b].load(std::memory_order_relaxed);
        if (static_cast<double>(cumulative) >= target)
            return std::uint64_t{1} << (b + 1);
    }
    return agg.maxNs.load(std::memory_order_relaxed);
}

} // namespace

namespace detail {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
recordSpan(Stage stage, std::uint64_t startNs, std::uint64_t endNs)
{
    const std::uint64_t dur = endNs > startNs ? endNs - startNs : 0;
    if (g_timing.load(std::memory_order_relaxed)) {
        StageAgg &agg = g_agg[static_cast<int>(stage)];
        agg.count.fetch_add(1, std::memory_order_relaxed);
        agg.totalNs.fetch_add(dur, std::memory_order_relaxed);
        atomicMax(agg.maxNs, dur);
        agg.bins[log2Bin(dur)].fetch_add(1,
                                         std::memory_order_relaxed);
    }
    if (g_trace.load(std::memory_order_relaxed)) {
        const int tid = traceTid();
        std::lock_guard<std::mutex> lock(g_traceMutex);
        if (g_events.size() < kMaxTraceEvents)
            g_events.push_back(TraceEvent{stage, startNs, dur, tid});
        else
            ++g_dropped;
    }
}

} // namespace detail

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Sample: return "sample";
      case Stage::Extract: return "extract";
      case Stage::Decode: return "decode";
      case Stage::Classify: return "classify";
      case Stage::Shard: return "shard";
      case Stage::StreamProduce: return "stream_produce";
      case Stage::StreamDecode: return "stream_decode";
      case Stage::StreamCommit: return "stream_commit";
      case Stage::StreamRecover: return "stream_recover";
      case Stage::UfGrow: return "uf_grow";
      case Stage::UfPeel: return "uf_peel";
      case Stage::Count: break;
    }
    return "unknown";
}

void
setTimingCollection(bool enabled)
{
    detail::g_timing.store(enabled, std::memory_order_relaxed);
}

bool
timingCollection()
{
    return detail::g_timing.load(std::memory_order_relaxed);
}

void
setTraceCapture(bool enabled)
{
    detail::g_trace.store(enabled, std::memory_order_relaxed);
}

bool
traceCapture()
{
    return detail::g_trace.load(std::memory_order_relaxed);
}

void
resetStageTimes()
{
    for (StageAgg &agg : g_agg) {
        agg.count.store(0, std::memory_order_relaxed);
        agg.totalNs.store(0, std::memory_order_relaxed);
        agg.maxNs.store(0, std::memory_order_relaxed);
        for (auto &bin : agg.bins)
            bin.store(0, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(g_traceMutex);
    g_events.clear();
    g_dropped = 0;
}

StageTiming
stageTiming(Stage stage)
{
    const StageAgg &agg = g_agg[static_cast<int>(stage)];
    StageTiming out;
    out.count = agg.count.load(std::memory_order_relaxed);
    out.totalNs = agg.totalNs.load(std::memory_order_relaxed);
    out.maxNs = agg.maxNs.load(std::memory_order_relaxed);
    out.p50Ns = percentileUpperBound(agg, 0.50);
    out.p99Ns = percentileUpperBound(agg, 0.99);
    return out;
}

void
stageTimingInto(MetricSet &out)
{
    for (int s = 0; s < kStageCount; ++s) {
        const StageTiming t = stageTiming(static_cast<Stage>(s));
        if (t.count == 0)
            continue;
        const std::string prefix =
            std::string("timing.span.") +
            stageName(static_cast<Stage>(s));
        out.add(prefix + ".count", t.count);
        out.add(prefix + ".total_ns", t.totalNs);
        out.maxGauge(prefix + ".max_ns", t.maxNs);
        out.maxGauge(prefix + ".p50_ns", t.p50Ns);
        out.maxGauge(prefix + ".p99_ns", t.p99Ns);
    }
}

std::size_t
traceEventCount()
{
    std::lock_guard<std::mutex> lock(g_traceMutex);
    return g_events.size();
}

std::size_t
traceDroppedCount()
{
    std::lock_guard<std::mutex> lock(g_traceMutex);
    return g_dropped;
}

bool
writeChromeTrace(std::ostream &os)
{
    std::lock_guard<std::mutex> lock(g_traceMutex);
    // Timestamps are steady-clock nanoseconds; rebase to the first
    // captured event so the microsecond values stay small enough to
    // print with sub-µs detail.
    std::uint64_t base = ~std::uint64_t{0};
    for (const TraceEvent &e : g_events)
        base = e.startNs < base ? e.startNs : base;
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << std::fixed << std::setprecision(3);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &e : g_events) {
        if (!first)
            os << ',';
        first = false;
        // chrome://tracing expects microseconds; keep sub-µs detail
        // by emitting fractional values.
        os << "{\"name\":\"" << stageName(e.stage)
           << "\",\"ph\":\"X\",\"ts\":"
           << static_cast<double>(e.startNs - base) / 1000.0
           << ",\"dur\":" << static_cast<double>(e.durNs) / 1000.0
           << ",\"pid\":0,\"tid\":" << e.tid << '}';
    }
    os << "],\"displayTimeUnit\":\"ns\"";
    if (g_dropped)
        os << ",\"nisqppDroppedEvents\":" << g_dropped;
    os << "}\n";
    os.flags(flags);
    os.precision(precision);
    os.flush();
    return static_cast<bool>(os);
}

} // namespace nisqpp::obs
