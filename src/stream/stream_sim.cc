#include "stream/stream_sim.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "common/logging.hh"
#include "common/rng.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "obs/trace.hh"
#include "surface/error_state.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

namespace {

/** Service times are binned at 1 ns for exact percentile telemetry. */
constexpr std::size_t kLatencyBinMaxNs = 8191;

/** Backlog trajectory samples over the production horizon. */
constexpr std::size_t kTrajectorySamples = 32;

} // namespace

void
StreamConfig::validate() const
{
    require(lattice != nullptr, "runStream: lattice required");
    require(rounds > 0, "runStream: rounds must be positive");
    require(syndromeCycleNs > 0,
            "runStream: syndrome cycle must be positive");
    if (windowRounds > 0)
        require(rounds % windowRounds == 0,
                "runStream: rounds must be a multiple of windowRounds");
    else
        require(measurementFlipRate == 0.0,
                "runStream: measurement noise requires windowRounds "
                "> 0 (per-round decoding cannot see readout flips)");
    require(windowRounds == 0 || !faultsActive(),
            "runStream: fault injection and recovery policies "
            "require the per-round pipeline (windowRounds == 0)");
    recovery.validate();
}

StreamingResult
runStream(const StreamConfig &config, Decoder &decoder,
          TrialWorkspace *workspace, const StreamObserver *observer)
{
    config.validate();
    require(decoder.type() == ErrorType::Z,
            "runStream: streaming decodes the dephasing (Z) family");
    if (config.latency.meshCycles)
        require(decoder.meshStats() != nullptr,
                "runStream: mesh-cycle latency model needs a decoder "
                "with mesh telemetry");

    std::unique_ptr<TrialWorkspace> owned;
    if (!workspace) {
        owned = std::make_unique<TrialWorkspace>();
        workspace = owned.get();
    }

    // Fault injection and recovery are a strict superset of the fault-
    // free pipeline: when neither is active every round gets the empty
    // RoundFaults{} under the inactive policy, which fires nothing (no
    // RNG draws, no ledger counts, no stream.fault.* metric keys), so
    // fault-free runs stay byte-identical to the goldens that predate
    // this layer.
    const bool faultsActive = config.faultsActive();
    const faults::RecoveryPolicy &policy = config.recovery;
    std::unique_ptr<faults::FaultPlan> plan;
    if (faultsActive)
        plan = std::make_unique<faults::FaultPlan>(
            config.faults,
            static_cast<std::uint32_t>(
                config.lattice->numAncilla(ErrorType::Z)));
    Syndrome corruptScratch(*config.lattice, ErrorType::Z);
    Syndrome lastGood(*config.lattice, ErrorType::Z);
    bool lastGoodValid = false;
    double pendingMergeNs = 0.0;

    const NoiseModel model = NoiseModel::dephasing(
        config.physicalRate, config.measurementFlipRate);
    Rng rng(config.seed);
    ErrorState state(*config.lattice);
    Syndrome syndrome(*config.lattice, ErrorType::Z);
    Histogram serviceHist(kLatencyBinMaxNs);

    StreamingResult result;
    faults::FaultCounts &fc = result.faults;
    const double cycle = config.syndromeCycleNs;
    const double endOfProduction =
        static_cast<double>(config.rounds) * cycle;
    const std::size_t stride =
        std::max<std::size_t>(1, config.rounds / (kTrajectorySamples - 1));

    // The consumer is one FIFO server: a round is settled the moment it
    // is queued (done = max(consumer free, arrival) + service), and the
    // queue only remembers when each pending round completes.
    struct Pending
    {
        double doneNs;
        bool duplicate; ///< second delivery: completes nothing
    };
    std::deque<Pending> queue;
    double consumerFreeNs = 0.0;
    std::size_t completed = 0;
    std::size_t completedByEnd = 0;
    bool parity = false;

    // Windowed state: w measured rounds accumulate, then a perfect
    // commit round closes the window, the decode happens once and its
    // correction is committed at the boundary.
    const std::size_t w = config.windowRounds;
    std::unique_ptr<SyndromeWindow> window;
    std::unique_ptr<Syndrome> commitSyn;
    if (w > 0) {
        window = std::make_unique<SyndromeWindow>(
            *config.lattice, ErrorType::Z, static_cast<int>(w) + 1);
        commitSyn =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
    }
    const Correction emptyCorrection; ///< observer arg between commits

    auto observe = [&](std::size_t k, const Correction &correction) {
        if (observer && *observer)
            (*observer)(k, syndrome, correction);
    };

    // Commit the decode's correction and return the resulting crossing
    // parity. A tiered decode that was repaired commits in two steps —
    // the provisional (mesh) frame is final XOR repair, so the repair
    // is pre-applied, the final correction lands the state on the
    // provisional frame, and the repair is then applied on top — and
    // the tiered escalation/repair/frame-flip counters accrue here.
    // With @p provisionalOnly (a decode deadline fired) the commit
    // stops on the provisional frame: the exact tier's repair is
    // abandoned, so the repair counters do not accrue.
    auto commitCorrection = [&](bool provisionalOnly) {
        const TieredDecodeStats *ts = decoder.tieredStats();
        if (ts && ts->escalated)
            ++result.escalations;
        if (!ts || !ts->repaired) {
            workspace->correction.applyTo(state, ErrorType::Z);
            return crossingParity(state, ErrorType::Z);
        }
        for (int d : ts->repairFlips)
            state.flip(ErrorType::Z, d);
        workspace->correction.applyTo(state, ErrorType::Z);
        const bool provisionalParity =
            crossingParity(state, ErrorType::Z);
        if (provisionalOnly)
            return provisionalParity;
        for (int d : ts->repairFlips)
            state.flip(ErrorType::Z, d);
        const bool repairedParity =
            crossingParity(state, ErrorType::Z);
        ++result.repairs;
        if (repairedParity != provisionalParity)
            ++result.repairFrameFlips;
        return repairedParity;
    };

    // Escalated decodes pay the mesh attempt plus the software tier.
    auto withEscalation = [&](double ns) {
        const TieredDecodeStats *ts = decoder.tieredStats();
        return ts && ts->escalated ? ns + config.latency.escalateNs
                                   : ns;
    };

    // Queue one round behind everything pending. A duplicate is the
    // second delivery of a round already handled: discarded by sequence
    // number, so it completes nothing and its queue residence is not a
    // sojourn.
    auto enqueue = [&](double arriveNs, double serviceNs, bool duplicate) {
        if (queue.size() >= kStreamQueueCapacity)
            ++result.overflowRounds;
        const double done =
            std::max(consumerFreeNs, arriveNs) + serviceNs;
        if (done < consumerFreeNs)
            result.clockMonotone = false;
        consumerFreeNs = done;
        if (duplicate) {
            ++fc.dedupRounds;
        } else {
            result.sojournNs.add(done - arriveNs);
            if (done <= endOfProduction)
                ++completedByEnd;
        }
        queue.push_back({done, duplicate});
    };

    // One consumer for both pipelines. Every round passes transport
    // (its faults, recovery and shedding) and joins the queue; a round
    // that closes a group — every round when w == 0, the w-th round of
    // each window otherwise — is decoded, priced, committed and
    // observed by the single tail below.
    auto processRound = [&](std::size_t k) {
        // The consumer retires every round it finishes by round k.
        const double tArrive = static_cast<double>(k) * cycle;
        while (!queue.empty() && queue.front().doneNs <= tArrive) {
            if (!queue.front().duplicate)
                ++completed;
            queue.pop_front();
        }

        // Produce and decode round k. The producer never waits for the
        // decoder: it injects one round of errors and extracts the
        // measured syndrome (readout flips drawn only when q > 0). The
        // decode result is computed round-synchronously (closed-loop
        // lifetime physics); only its cost is replayed against the
        // virtual clock below.
        {
            obs::TraceSpan produceSpan(obs::Stage::StreamProduce);
            model.sample(rng, state);
            extractSyndromeInto(state, ErrorType::Z, syndrome);
            model.flipMeasurements(rng, syndrome);
        }
        const faults::RoundFaults rf =
            plan ? plan->eventFor(k) : faults::RoundFaults{};
        double arriveNs = tArrive;

        if (rf.delayCycles > 0) {
            ++fc.delays;
            arriveNs += static_cast<double>(rf.delayCycles) * cycle;
        }

        // Transport outcome for round k's delivery.
        bool carried = false;   // decode the last clean frame
        bool lost = false;      // no decode at all
        bool corrupted = false; // decode the corrupted copy
        if (rf.transportFault()) {
            if (rf.dropped)
                ++fc.drops;
            else
                ++fc.corruptions;
            const int attempts = rf.retransmitsNeeded + 1;
            if (policy.parityRetransmit &&
                attempts <= policy.maxRetransmits) {
                // Parity caught the fault; bounded re-requests are paid
                // in virtual ns with linear backoff (attempt i costs
                // i * retransmitNs), then the clean round arrives.
                obs::TraceSpan span(obs::Stage::StreamRecover);
                fc.retransmits += static_cast<std::uint64_t>(attempts);
                for (int i = 1; i <= attempts; ++i)
                    arriveNs +=
                        static_cast<double>(i) * policy.retransmitNs;
            } else if (rf.dropped || policy.parityRetransmit) {
                // A drop, or a corruption parity caught but could not
                // recover within the re-request budget.
                if (policy.carryForward && lastGoodValid)
                    carried = true;
                else
                    lost = true;
            } else {
                // No parity protection: the corruption is silent and
                // the consumer decodes the corrupted round.
                corrupted = true;
            }
        }
        // Only delivered rounds can arrive twice.
        const bool duplicated = rf.duplicated && !lost && !carried;
        if (duplicated)
            ++fc.duplicates;

        // Load shedding: above the backlog threshold the consumer
        // refuses the decode. The lifetime syndrome is cumulative, so
        // the next decoded round supersedes a shed one's information —
        // DropOldest discards it outright, XorMerge folds it into the
        // next decode for a small surcharge.
        bool shed = false;
        if (!lost && policy.shedThreshold > 0 &&
            queue.size() >= policy.shedThreshold) {
            shed = true;
            if (policy.shedMode == faults::ShedMode::DropOldest) {
                ++fc.shedRounds;
            } else {
                ++fc.mergedRounds;
                pendingMergeNs += policy.mergeNs;
            }
        }

        if (window)
            window->recordRound(static_cast<int>(k % w), syndrome);
        const bool closesGroup = w == 0 || (k + 1) % w == 0;

        double serviceNs = 0.0;
        if (lost)
            ++fc.lostRounds;
        if (lost || shed || !closesGroup) {
            observe(k, emptyCorrection);
        } else {
            const Syndrome *toDecode = &syndrome;
            if (carried) {
                obs::TraceSpan span(obs::Stage::StreamRecover);
                toDecode = &lastGood;
                ++fc.carriedForward;
            } else {
                if (corrupted) {
                    corruptScratch = syndrome;
                    for (int i = 0; i < rf.corruptBits; ++i)
                        corruptScratch.flip(static_cast<int>(
                            rf.corruptAncilla[static_cast<std::size_t>(i)]));
                    toDecode = &corruptScratch;
                    ++fc.corruptDecodes;
                } else if (policy.carryForward) {
                    lastGood = syndrome;
                    lastGoodValid = true;
                }
                if (faultsActive) // fault-free ledgers stay all-zero
                    ++fc.decodedRounds;
            }
            if (window) {
                // Close the window with a perfect commit round; it
                // decodes as one spacetime problem.
                extractSyndromeInto(state, ErrorType::Z, *commitSyn);
                window->recordRound(static_cast<int>(w), *commitSyn);
                ++result.windows;
            }
            {
                obs::TraceSpan decodeSpan(obs::Stage::StreamDecode);
                if (window)
                    decoder.decodeWindow(*window, *workspace);
                else
                    decoder.decode(*toDecode, *workspace);
            }
            serviceNs = withEscalation(
                config.latency.decodeNs(decoder.meshStats()));
            if (pendingMergeNs > 0.0) {
                serviceNs += pendingMergeNs;
                pendingMergeNs = 0.0;
            }
            if (rf.stallFactor != 1.0) {
                ++fc.stalls;
                serviceNs *= rf.stallFactor;
            }
            bool provisionalOnly = false;
            if (policy.deadlineNs > 0.0 &&
                serviceNs > policy.deadlineNs) {
                // Deadline miss: an escalated tiered decode commits its
                // provisional mesh answer instead of waiting out the
                // exact tier; anything else just has its modeled
                // service clamped to the budget.
                const TieredDecodeStats *ts = decoder.tieredStats();
                if (ts && ts->escalated) {
                    provisionalOnly = true;
                    ++fc.deadlineCommits;
                } else {
                    ++fc.deadlineClamps;
                }
                serviceNs = policy.deadlineNs;
            }
            if (rf.decodeFailed) {
                // Transient decode failure: the service time is paid
                // but no correction lands; the residual errors stay for
                // the next round's decode.
                ++fc.decodeFailures;
                observe(k, emptyCorrection);
            } else {
                bool nowParity;
                {
                    obs::TraceSpan commitSpan(obs::Stage::StreamCommit);
                    nowParity = commitCorrection(provisionalOnly);
                }
                if (nowParity != parity)
                    ++result.failures;
                parity = nowParity;
                observe(k, workspace->correction);
            }
            // Only rounds that run a decode enter the service
            // statistics: non-closing windowed rounds cost no decode
            // work, and their zero "services" would dilute the
            // percentiles relative to the per-round pipeline. (They
            // still pass through the queue with zero service so
            // arrival accounting is unchanged.)
            result.serviceNs.add(serviceNs);
            serviceHist.add(
                static_cast<std::size_t>(std::llround(serviceNs)));
            if (window) {
                // Re-arm: the next window's round-0 events are measured
                // against the post-commit perfect frame.
                extractSyndromeInto(state, ErrorType::Z, *commitSyn);
                window->reset();
                window->setBaseline(*commitSyn);
            }
        }

        enqueue(arriveNs, serviceNs, false);
        if (duplicated)
            enqueue(arriveNs, 0.0, true);
        ++result.rounds;

        const std::size_t backlog = (k + 1) - completed;
        const std::size_t depth =
            std::min(queue.size(), kStreamQueueCapacity);
        result.maxBacklogRounds =
            std::max(result.maxBacklogRounds, backlog);
        result.maxQueueDepth = std::max(result.maxQueueDepth, depth);
        if (k % stride == 0 || k + 1 == config.rounds)
            result.trajectory.push_back({k, backlog, depth});
    };

    for (std::size_t k = 0; k < config.rounds; ++k)
        processRound(k);

    result.finalBacklogRounds = result.rounds - completedByEnd;
    result.backlogGrowthPerRound =
        static_cast<double>(result.finalBacklogRounds) /
        static_cast<double>(result.rounds);
    result.drainNs = std::max(0.0, consumerFreeNs - endOfProduction);
    // f is normalized per *produced round* (total service over total
    // production time), so windowed runs amortize each window's single
    // decode over its rounds and stay comparable to the w == 0 path.
    result.fEmpirical =
        result.serviceNs.mean() *
        static_cast<double>(result.serviceNs.count()) /
        (static_cast<double>(result.rounds) * cycle);
    result.logicalErrorRate =
        static_cast<double>(result.failures) /
        static_cast<double>(w > 0 ? result.windows : result.rounds);
    result.servicePercentiles.p50 =
        percentileFromHistogram(serviceHist, 0.50);
    result.servicePercentiles.p90 =
        percentileFromHistogram(serviceHist, 0.90);
    result.servicePercentiles.p99 =
        percentileFromHistogram(serviceHist, 0.99);
    result.servicePercentiles.max = result.serviceNs.max();

    // Deterministic stream.* counters: everything below is a function
    // of (config, seed) alone, so scenario-level metric folds stay
    // thread-count-invariant. The decoder is owned by this run's cell,
    // so its exported work counters are exactly this run's work.
    result.metrics.add("stream.rounds", result.rounds);
    result.metrics.add("stream.windows", result.windows);
    result.metrics.add("stream.failures", result.failures);
    result.metrics.add("stream.queue.spills", result.overflowRounds);
    result.metrics.add("stream.backlog.final_rounds",
                       result.finalBacklogRounds);
    result.metrics.maxGauge("stream.queue.max_fast_depth",
                            result.maxQueueDepth);
    result.metrics.maxGauge("stream.backlog.max_rounds",
                            result.maxBacklogRounds);
    if (decoder.tieredStats()) {
        result.metrics.add("stream.tiered.escalations",
                           result.escalations);
        result.metrics.add("stream.tiered.repairs", result.repairs);
        result.metrics.add("stream.tiered.frame_flips",
                           result.repairFrameFlips);
    }
    // stream.fault.* keys exist only on fault/recovery-active runs so
    // fault-free metric reports (and every pre-fault golden) keep
    // their exact key set.
    if (faultsActive) {
        result.metrics.add("stream.fault.drops", fc.drops);
        result.metrics.add("stream.fault.corruptions", fc.corruptions);
        result.metrics.add("stream.fault.duplicates", fc.duplicates);
        result.metrics.add("stream.fault.delays", fc.delays);
        result.metrics.add("stream.fault.stalls", fc.stalls);
        result.metrics.add("stream.fault.decode_failures",
                           fc.decodeFailures);
        result.metrics.add("stream.fault.retransmits", fc.retransmits);
        result.metrics.add("stream.fault.carried_forward",
                           fc.carriedForward);
        result.metrics.add("stream.fault.lost_rounds", fc.lostRounds);
        result.metrics.add("stream.fault.corrupt_decodes",
                           fc.corruptDecodes);
        result.metrics.add("stream.fault.deadline_commits",
                           fc.deadlineCommits);
        result.metrics.add("stream.fault.deadline_clamps",
                           fc.deadlineClamps);
        result.metrics.add("stream.fault.shed_rounds", fc.shedRounds);
        result.metrics.add("stream.fault.merged_rounds",
                           fc.mergedRounds);
        result.metrics.add("stream.fault.dedup_rounds", fc.dedupRounds);
        result.metrics.add("stream.fault.decoded_rounds",
                           fc.decodedRounds);
    }
    decoder.exportMetrics(result.metrics);
    return result;
}

} // namespace nisqpp
