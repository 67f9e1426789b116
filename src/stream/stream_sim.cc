#include "stream/stream_sim.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "obs/trace.hh"
#include "stream/stream_queue.hh"
#include "stream/syndrome_stream.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

namespace {

/** Service times are binned at 1 ns for exact percentile telemetry. */
constexpr std::size_t kLatencyBinMaxNs = 8191;

} // namespace

StreamingResult
runStream(const StreamConfig &config, Decoder &decoder,
          TrialWorkspace *workspace, const StreamObserver *observer)
{
    require(config.lattice != nullptr, "runStream: lattice required");
    require(config.rounds > 0, "runStream: rounds must be positive");
    require(config.syndromeCycleNs > 0,
            "runStream: syndrome cycle must be positive");
    require(decoder.type() == ErrorType::Z,
            "runStream: streaming decodes the dephasing (Z) family");

    std::unique_ptr<TrialWorkspace> owned;
    if (!workspace) {
        owned = std::make_unique<TrialWorkspace>();
        workspace = owned.get();
    }
    if (config.latency.meshCycles)
        require(decoder.meshStats() != nullptr,
                "runStream: mesh-cycle latency model needs a decoder "
                "with mesh telemetry");

    const std::size_t w = config.windowRounds;
    if (w > 0)
        require(config.rounds % w == 0,
                "runStream: rounds must be a multiple of windowRounds");
    else
        require(config.measurementFlipRate == 0.0,
                "runStream: measurement noise requires windowRounds "
                "> 0 (per-round decoding cannot see readout flips)");

    // Fault injection and recovery are a strict superset of the fault-
    // free pipeline: when neither is active the code below takes
    // exactly the pre-fault path (no extra RNG draws, no stream.fault.*
    // metric keys), keeping fault-free runs byte-identical to the
    // goldens that predate this layer.
    const bool faultsActive =
        config.faults.any() || config.recovery.active();
    std::unique_ptr<faults::FaultPlan> plan;
    std::unique_ptr<Syndrome> corruptScratch;
    std::unique_ptr<Syndrome> lastGood;
    bool lastGoodValid = false;
    double pendingMergeNs = 0.0;
    if (faultsActive) {
        require(w == 0,
                "runStream: fault injection and recovery policies "
                "require the per-round pipeline (windowRounds == 0)");
        config.recovery.validate();
        plan = std::make_unique<faults::FaultPlan>(
            config.faults,
            static_cast<std::uint32_t>(
                config.lattice->numAncilla(ErrorType::Z)));
        corruptScratch =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
        lastGood =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
    }

    const NoiseModel model = NoiseModel::dephasing(
        config.physicalRate, config.measurementFlipRate);
    SyndromeStream stream(*config.lattice, model, ErrorType::Z,
                          config.seed, config.syndromeCycleNs);
    StreamQueue queue(config.queueCapacity);
    Histogram serviceHist(kLatencyBinMaxNs);

    StreamingResult result;
    const double cycle = config.syndromeCycleNs;
    const double endOfProduction =
        static_cast<double>(config.rounds) * cycle;
    const std::size_t stride = std::max<std::size_t>(
        1, config.rounds / std::max<std::size_t>(
               1, config.trajectorySamples > 1
                      ? config.trajectorySamples - 1
                      : 1));

    double consumerFreeNs = 0.0;
    std::size_t completed = 0;
    std::size_t completedByEnd = 0;
    bool parity = false;

    // Windowed-consumer state: w measured rounds accumulate, then a
    // perfect commit round closes the window, the decode happens once
    // and its correction is committed at the boundary.
    std::unique_ptr<SyndromeWindow> window;
    std::unique_ptr<Syndrome> commitSyn;
    if (w > 0) {
        window = std::make_unique<SyndromeWindow>(
            *config.lattice, ErrorType::Z, static_cast<int>(w) + 1);
        commitSyn =
            std::make_unique<Syndrome>(*config.lattice, ErrorType::Z);
    }
    const Correction emptyCorrection; ///< observer arg between commits

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
            workspace->correction.applyTo(stream.state(), ErrorType::Z);
            return crossingParity(stream.state(), ErrorType::Z);
        }
        for (int d : ts->repairFlips)
            stream.state().flip(ErrorType::Z, d);
        workspace->correction.applyTo(stream.state(), ErrorType::Z);
        const bool provisionalParity =
            crossingParity(stream.state(), ErrorType::Z);
        if (provisionalOnly)
            return provisionalParity;
        for (int d : ts->repairFlips)
            stream.state().flip(ErrorType::Z, d);
        const bool repairedParity =
            crossingParity(stream.state(), ErrorType::Z);
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

    auto completeFront = [&]() {
        const StreamRound &entry = queue.front();
        const double start = std::max(consumerFreeNs, entry.arriveNs);
        const double done = start + entry.serviceNs;
        if (done < consumerFreeNs)
            result.clockMonotone = false;
        consumerFreeNs = done;
        if (entry.duplicate) {
            // Second delivery of a round already handled: discarded by
            // sequence number, so it completes nothing and its queue
            // residence is not a sojourn.
            ++result.faults.dedupRounds;
        } else {
            result.sojournNs.add(done - entry.arriveNs);
            if (done <= endOfProduction)
                ++completedByEnd;
            ++completed;
        }
        queue.pop();
        return done;
    };

    // The consumer retires every round it finishes before @p tArrive;
    // peeking the completion time keeps FIFO exactness.
    auto retireBefore = [&](double tArrive) {
        while (!queue.empty()) {
            const StreamRound &entry = queue.front();
            const double done =
                std::max(consumerFreeNs, entry.arriveNs) +
                entry.serviceNs;
            if (done > tArrive)
                break;
            completeFront();
        }
    };

    auto processRound = [&](std::size_t k) {
        const double tArrive = static_cast<double>(k) * cycle;
        retireBefore(tArrive);

        // Produce and decode round k. The decode result is computed
        // round-synchronously (closed-loop lifetime physics); only its
        // cost is replayed against the virtual clock below.
        const Syndrome *produced;
        {
            obs::TraceSpan produceSpan(obs::Stage::StreamProduce);
            produced = &stream.emit();
        }
        const Syndrome &syndrome = *produced;
        double serviceNs = 0.0;
        double arriveNs = tArrive;
        bool decoded = false;
        bool duplicated = false;
        if (w == 0 && faultsActive) {
            const faults::RoundFaults rf = plan->eventFor(k);
            const faults::RecoveryPolicy &policy = config.recovery;
            faults::FaultCounts &fc = result.faults;

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
                    // Parity caught the fault; bounded re-requests are
                    // paid in virtual ns with linear backoff (attempt
                    // i costs i * retransmitNs), then the clean round
                    // arrives.
                    obs::TraceSpan span(obs::Stage::StreamRecover);
                    fc.retransmits +=
                        static_cast<std::uint64_t>(attempts);
                    for (int i = 1; i <= attempts; ++i)
                        arriveNs += static_cast<double>(i) *
                                    policy.retransmitNs;
                } else if (rf.dropped || policy.parityRetransmit) {
                    // A drop, or a corruption parity caught but could
                    // not recover within the re-request budget.
                    if (policy.carryForward && lastGoodValid)
                        carried = true;
                    else
                        lost = true;
                } else {
                    // No parity protection: the corruption is silent
                    // and the consumer decodes the corrupted round.
                    corrupted = true;
                }
            }
            // Only delivered rounds can arrive twice.
            duplicated = rf.duplicated && !lost && !carried;
            if (duplicated)
                ++fc.duplicates;

            // Load shedding: above the backlog threshold the consumer
            // refuses the decode. The lifetime syndrome is cumulative,
            // so the next decoded round supersedes a shed one's
            // information — DropOldest discards it outright, XorMerge
            // folds it into the next decode for a small surcharge.
            bool shed = false;
            bool mergedRound = false;
            if (!lost && policy.shedThreshold > 0 &&
                queue.depth() >= policy.shedThreshold) {
                if (policy.shedMode == faults::ShedMode::DropOldest) {
                    shed = true;
                    ++fc.shedRounds;
                } else {
                    mergedRound = true;
                    ++fc.mergedRounds;
                    pendingMergeNs += policy.mergeNs;
                }
            }

            if (lost) {
                ++fc.lostRounds;
                if (observer && *observer)
                    (*observer)(k, syndrome, emptyCorrection);
            } else if (shed || mergedRound) {
                if (observer && *observer)
                    (*observer)(k, syndrome, emptyCorrection);
            } else {
                const Syndrome *toDecode = &syndrome;
                if (carried) {
                    obs::TraceSpan span(obs::Stage::StreamRecover);
                    toDecode = lastGood.get();
                    ++fc.carriedForward;
                } else {
                    if (corrupted) {
                        *corruptScratch = syndrome;
                        for (int i = 0; i < rf.corruptBits; ++i)
                            corruptScratch->flip(static_cast<int>(
                                rf.corruptAncilla
                                    [static_cast<std::size_t>(i)]));
                        toDecode = corruptScratch.get();
                        ++fc.corruptDecodes;
                    } else if (policy.carryForward) {
                        *lastGood = syndrome;
                        lastGoodValid = true;
                    }
                    ++fc.decodedRounds;
                }
                {
                    obs::TraceSpan decodeSpan(obs::Stage::StreamDecode);
                    decoder.decode(*toDecode, *workspace);
                }
                serviceNs = withEscalation(config.latency.decodeNs(
                    decoder.meshStats(), toDecode->weight()));
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
                    // Deadline miss: an escalated tiered decode
                    // commits its provisional mesh answer instead of
                    // waiting out the exact tier; anything else just
                    // has its modeled service clamped to the budget.
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
                    // Transient decode failure: the service time is
                    // paid but no correction lands; the residual
                    // errors stay for the next round's decode.
                    ++fc.decodeFailures;
                    if (observer && *observer)
                        (*observer)(k, syndrome, emptyCorrection);
                } else {
                    bool nowParity;
                    {
                        obs::TraceSpan commitSpan(
                            obs::Stage::StreamCommit);
                        nowParity = commitCorrection(provisionalOnly);
                    }
                    if (nowParity != parity)
                        ++result.failures;
                    parity = nowParity;
                    if (observer && *observer)
                        (*observer)(k, syndrome, workspace->correction);
                }
                decoded = true;
            }
        } else if (w == 0) {
            {
                obs::TraceSpan decodeSpan(obs::Stage::StreamDecode);
                decoder.decode(syndrome, *workspace);
            }
            bool nowParity;
            {
                obs::TraceSpan commitSpan(obs::Stage::StreamCommit);
                nowParity = commitCorrection(false);
            }
            if (nowParity != parity)
                ++result.failures;
            parity = nowParity;
            if (observer && *observer)
                (*observer)(k, syndrome, workspace->correction);
            serviceNs = withEscalation(config.latency.decodeNs(
                decoder.meshStats(), syndrome.weight()));
            decoded = true;
        } else {
            const int t = static_cast<int>(k % w);
            window->recordRound(t, syndrome);
            if (t + 1 == static_cast<int>(w)) {
                // Close the window with a perfect commit round,
                // decode it as one spacetime problem, commit.
                stream.extractPerfectInto(*commitSyn);
                window->recordRound(static_cast<int>(w), *commitSyn);
                {
                    obs::TraceSpan decodeSpan(
                        obs::Stage::StreamDecode);
                    decoder.decodeWindow(*window, *workspace);
                }
                bool nowParity;
                {
                    obs::TraceSpan commitSpan(
                        obs::Stage::StreamCommit);
                    ++result.windows;
                    nowParity = commitCorrection(false);
                }
                if (nowParity != parity)
                    ++result.failures;
                parity = nowParity;
                if (observer && *observer)
                    (*observer)(k, syndrome, workspace->correction);
                serviceNs = withEscalation(config.latency.decodeNs(
                    decoder.meshStats(), window->eventWeight()));
                decoded = true;
                // Re-arm: the next window's round-0 events are
                // measured against the post-commit perfect frame.
                stream.extractPerfectInto(*commitSyn);
                window->reset();
                window->setBaseline(*commitSyn);
            } else if (observer && *observer) {
                (*observer)(k, syndrome, emptyCorrection);
            }
        }

        // Only rounds that actually ran a decode enter the service
        // statistics: non-closing windowed rounds cost no decode work,
        // and their zero "services" would dilute the percentiles
        // relative to the per-round path. (They still pass through the
        // queue with zero service so arrival accounting is unchanged.)
        if (decoded) {
            result.serviceNs.add(serviceNs);
            serviceHist.add(
                static_cast<std::size_t>(std::llround(serviceNs)));
        }

        queue.push({k, arriveNs, serviceNs, false});
        if (duplicated)
            queue.push({k, arriveNs, 0.0, true});
        ++result.rounds;

        const std::size_t backlog = (k + 1) - completed;
        result.maxBacklogRounds =
            std::max(result.maxBacklogRounds, backlog);
        result.maxQueueDepth =
            std::max(result.maxQueueDepth, queue.fastDepth());
        if (k % stride == 0 || k + 1 == config.rounds)
            result.trajectory.push_back(
                {k, backlog, queue.fastDepth()});
    };

    for (std::size_t k = 0; k < config.rounds; ++k)
        processRound(k);

    // Production is over; drain whatever is still pending.
    double lastDone = consumerFreeNs;
    while (!queue.empty())
        lastDone = completeFront();

    result.overflowRounds = queue.overflowCount();
    result.finalBacklogRounds = result.rounds - completedByEnd;
    result.backlogGrowthPerRound =
        static_cast<double>(result.finalBacklogRounds) /
        static_cast<double>(result.rounds);
    result.drainNs = std::max(0.0, lastDone - endOfProduction);
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
        const faults::FaultCounts &fc = result.faults;
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
