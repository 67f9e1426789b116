/**
 * @file
 * Streaming decode pipeline (paper Section III, Figs. 5-6 measured):
 * the producer emits per-round syndromes, one per syndrome cycle of
 * runStream's virtual clock, and the decoder consumer is a single FIFO
 * server: round k completes at max(previous completion, arrival) +
 * service, at the rate its latency model allows. Decode *results* are
 * computed round-synchronously (so streaming corrections are
 * bit-identical to batch Decoder::decode on the same syndromes and the
 * lifetime-protocol physics stays closed); decode *timing* is replayed
 * against the virtual clock, producing queue-depth, latency-percentile
 * and backlog-trajectory telemetry. Everything is a deterministic
 * function of the configuration and seed.
 */

#ifndef NISQPP_STREAM_STREAM_SIM_HH
#define NISQPP_STREAM_STREAM_SIM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "decoders/decoder.hh"
#include "faults/fault_plan.hh"
#include "obs/metrics.hh"
#include "stream/latency_model.hh"
#include "stream/telemetry.hh"
#include "surface/lattice.hh"

namespace nisqpp {

class TrialWorkspace;

/** On-chip buffer slots of the decoder; more pending rounds overflow. */
inline constexpr std::size_t kStreamQueueCapacity = 64;

/** Configuration of one streaming decode run. */
struct StreamConfig
{
    const SurfaceLattice *lattice = nullptr;
    double physicalRate = 0.05;   ///< dephasing channel parameter
    /** Measurement flip rate q; > 0 forces windowed decoding. */
    double measurementFlipRate = 0.0;
    /**
     * Noisy rounds per decode window; 0 decodes every round
     * immediately (perfect-measurement pipeline). When set, the
     * consumer accumulates w measured rounds plus a perfect commit
     * round, decodes the window through Decoder::decodeWindow, and
     * commits the correction at the window boundary. A round and a
     * window drain through one consumer: the round that closes a
     * group (every round when w = 0, every w-th otherwise) runs the
     * same decode, pricing, commit and observer step.
     */
    std::size_t windowRounds = 0;
    double syndromeCycleNs = 400.0; ///< generation cycle (paper [27])
    std::size_t rounds = 4000;    ///< production horizon
    std::uint64_t seed = 0x57e40ULL;
    StreamLatencyModel latency;

    /**
     * Seeded fault injection striking transport and consumer (all-zero
     * = fault-free), and the recovery/degradation policy answering it.
     * Both default-inactive; with neither active every round meets no
     * fault under an inactive policy (no extra RNG draws, no fault
     * ledger counts or metrics), so existing goldens are untouched. @{
     */
    faults::FaultSpec faults;
    faults::RecoveryPolicy recovery;
    /** @} */

    /**
     * Ignored: runStream decodes round by round, whatever the decoder.
     * Kept only because the benchmark driver still sets it; drop it
     * with the next change to the benchmark.
     */
    std::size_t batchLanes = 1;

    /** True when fault injection or a recovery policy is enabled. */
    bool faultsActive() const { return faults.any() || recovery.active(); }

    /**
     * Panics on a configuration runStream cannot run, whatever the
     * decoder: a missing lattice, no rounds or cycle time, rounds not
     * a multiple of windowRounds, measurement noise without a window,
     * faults or recovery with a window (faults x windows is
     * unsupported), or a negative recovery cost. Every combination
     * check that reads only the config lives here; runStream calls it
     * first and adds only the checks that need the decoder.
     */
    void validate() const;
};

/** Aggregates and telemetry of one streaming run. */
struct StreamingResult
{
    std::size_t rounds = 0;
    /** Windows committed (windowed runs; 0 on per-round runs). */
    std::size_t windows = 0;
    std::size_t failures = 0; ///< lifetime-protocol logical flips

    /**
     * Tiered-decoder telemetry (zero for non-tiered decoders): decodes
     * escalated to the exact tier, escalations whose exact answer
     * disagreed with the provisional mesh commit (a Pauli-frame repair
     * was applied), and repairs that flipped the committed logical
     * frame. @{
     */
    std::size_t escalations = 0;
    std::size_t repairs = 0;
    std::size_t repairFrameFlips = 0;
    /** @} */

    /**
     * failures / rounds — or failures / windows on windowed runs —
     * the streaming counterpart of PL.
     */
    double logicalErrorRate = 0.0;

    /**
     * Modeled decode service time per *decode* (ns): one observation
     * per round on the per-round pipeline, one per committed window on
     * windowed runs. Non-closing windowed rounds cost no decode work
     * and are excluded, so the percentiles below describe actual
     * decode latency on both paths.
     */
    RunningStats serviceNs;
    /** Arrival-to-completion sojourn per round (ns; includes queueing). */
    RunningStats sojournNs;
    /** Service-time percentiles from exact 1 ns bins. */
    LatencyPercentiles servicePercentiles;

    /** High-water mark of min(pending rounds, kStreamQueueCapacity). */
    std::size_t maxQueueDepth = 0;
    std::size_t maxBacklogRounds = 0; ///< produced - completed peak
    /** Rounds queued while kStreamQueueCapacity were already pending. */
    std::size_t overflowRounds = 0;

    /** Rounds still undecoded the instant production stops. */
    std::size_t finalBacklogRounds = 0;
    /** finalBacklogRounds / rounds: measured growth per produced round. */
    double backlogGrowthPerRound = 0.0;
    /** Simulated time past end-of-production to drain the backlog. */
    double drainNs = 0.0;
    /**
     * Total decode service time / total production time: the measured
     * operating ratio f (normalized per produced round, so windowed
     * runs amortize each window's decode over its rounds).
     */
    double fEmpirical = 0.0;

    std::vector<BacklogSample> trajectory;

    /**
     * Fault/recovery ledger (all-zero on fault-free runs). The
     * conservation invariant the torture harness asserts:
     * rounds == decodedRounds + carriedForward + lostRounds +
     * shedRounds + mergedRounds, with dedupRounds == duplicates.
     */
    faults::FaultCounts faults;
    /**
     * Virtual-clock sanity: completion times never ran backwards.
     * Always true by construction; asserted per completion so the
     * torture harness pins the property rather than assuming it.
     */
    bool clockMonotone = true;

    /**
     * Deterministic stream.* counters (rounds, windows, failures,
     * queue spills, backlog peaks) plus the decoder's exported
     * decoder.* work counters — everything here is a function of
     * (config, seed) only, so scenario-folded metric aggregates stay
     * thread-count-invariant.
     */
    obs::MetricSet metrics;
};

/**
 * Per-round observer: invoked after each round's decode with the
 * emitted syndrome and the correction the decoder returned for it
 * (used by the batch-equivalence tests and explorers). On windowed
 * runs non-commit rounds report an empty correction; the commit round
 * reports the whole window's committed correction.
 */
using StreamObserver = std::function<void(
    std::size_t round, const Syndrome &syndrome, const Correction &)>;

/**
 * Run one streaming trial of @p decoder (which must decode the
 * dephasing family, ErrorType::Z) under @p config.
 *
 * @param workspace Scratch shared with other work on this thread;
 *                  null = allocate a private workspace.
 * @param observer  Optional per-round hook; pass nullptr when unused.
 */
StreamingResult runStream(const StreamConfig &config, Decoder &decoder,
                          TrialWorkspace *workspace = nullptr,
                          const StreamObserver *observer = nullptr);

} // namespace nisqpp

#endif // NISQPP_STREAM_STREAM_SIM_HH
