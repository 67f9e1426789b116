/**
 * @file
 * Telemetry of the streaming decode pipeline: deterministic latency
 * percentiles from an integer-binned histogram, and backlog/queue-depth
 * trajectory samples (the measured counterpart of the paper's Fig. 5
 * backlog staircase and Fig. 6 runtime blowup).
 */

#ifndef NISQPP_STREAM_TELEMETRY_HH
#define NISQPP_STREAM_TELEMETRY_HH

#include <cstddef>

#include "common/stats.hh"

namespace nisqpp {

/** Latency distribution summary (nanoseconds). */
struct LatencyPercentiles
{
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * Value below which a fraction >= @p q of the histogram's mass lies,
 * from its 1-unit integer bins. Observations in the overflow bin are
 * treated as numBins() (a lower bound), so percentiles of heavy-tailed
 * distributions saturate instead of inventing data.
 */
double percentileFromHistogram(const Histogram &hist, double q);

/** One sampled point of the backlog/queue-depth trajectory. */
struct BacklogSample
{
    std::size_t round = 0;       ///< producer round index
    std::size_t backlogRounds = 0; ///< produced - completed at sample
    std::size_t queueDepth = 0;  ///< min(pending, queue capacity)
};

} // namespace nisqpp

#endif // NISQPP_STREAM_TELEMETRY_HH
