#include "sim/monte_carlo.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/trace.hh"

namespace nisqpp {

namespace {

/** Scale a trial count, clamping instead of overflowing size_t. */
std::size_t
scaleTrials(std::size_t n, double mult)
{
    // Largest double guaranteed below SIZE_MAX on 64-bit targets.
    constexpr double cap = 9.0e18;
    const double scaled = static_cast<double>(n) * mult;
    if (scaled >= cap)
        return static_cast<std::size_t>(cap);
    const auto result = static_cast<std::size_t>(scaled);
    // Never scale a nonzero budget down to nothing: a zero-trial run
    // is indistinguishable from a genuine zero-failure result.
    if (result == 0 && n > 0)
        return 1;
    return result;
}

} // namespace

StopRule
StopRule::scaled(double mult) const
{
    StopRule out = *this;
    if (!std::isfinite(mult) || mult <= 0)
        return out;
    out.minTrials = scaleTrials(out.minTrials, mult);
    out.maxTrials = scaleTrials(out.maxTrials, mult);
    return out;
}

void
MonteCarloResult::merge(const MonteCarloResult &other)
{
    trials += other.trials;
    failures += other.failures;
    syndromeResidualFailures += other.syndromeResidualFailures;
    cycles.merge(other.cycles);
    cycleHistogram.merge(other.cycleHistogram);
    metrics.merge(other.metrics);
}

void
MonteCarloResult::finalize()
{
    logicalErrorRate =
        trials ? static_cast<double>(failures) /
                     static_cast<double>(trials)
               : 0.0;
    ci = wilson95(failures, trials);
}

LifetimeSimulator::LifetimeSimulator(const SurfaceLattice &lattice,
                                     Decoder &zDecoder, Decoder *xDecoder,
                                     TrialWorkspace *workspace)
    : lattice_(lattice),
      maxCycles_(static_cast<std::size_t>(128 * (lattice.gridSize() + 2))),
      families_{{{ErrorType::Z, &zDecoder, {}, {}},
                 {ErrorType::X, xDecoder, {}, {}}}},
      ws_(workspace)
{
    require(zDecoder.type() == ErrorType::Z,
            "LifetimeSimulator: zDecoder must decode Z errors");
    if (xDecoder)
        require(xDecoder->type() == ErrorType::X,
                "LifetimeSimulator: xDecoder must decode X errors");
    if (!ws_) {
        owned_ = std::make_unique<TrialWorkspace>();
        ws_ = owned_.get();
    }
}

LifetimeSimulator::~LifetimeSimulator() = default;

void
LifetimeSimulator::setBatchLanes(std::size_t lanes)
{
    batchLanes_ = std::max<std::size_t>(1, lanes);
}

void
LifetimeSimulator::setMeasurementWindow(int rounds)
{
    require(rounds >= 0,
            "LifetimeSimulator: window rounds must be >= 0");
    windowRounds_ = rounds;
}

void
LifetimeSimulator::recordMeshStats(const MeshDecodeStats &stats,
                                   Lane &lane) const
{
    lane.acc.cycles.add(stats.cycles);
    const auto cycles = static_cast<std::size_t>(stats.cycles);
    if (cycles > maxCycles_) {
        ++lane.cycleOverflow;
        return;
    }
    // Grown to the slot's high-water mark, then kept.
    if (cycles >= lane.cycleCounts.size())
        lane.cycleCounts.resize(cycles + 1, 0);
    ++lane.cycleCounts[cycles];
}

void
LifetimeSimulator::ensureSlots(std::size_t slots)
{
    while (states_.size() < slots)
        states_.emplace_back(lattice_);
    const int total = windowRounds_ + 1;
    for (Family &f : families_) {
        if (!f.decoder)
            continue;
        while (f.syndromes.size() < slots)
            f.syndromes.emplace_back(lattice_, f.type);
        if (windowRounds_ == 0)
            continue;
        if (!f.windows.empty() && f.windows[0].rounds() != total)
            f.windows.clear();
        while (f.windows.size() < slots)
            f.windows.emplace_back(lattice_, f.type, total);
    }
    if (synPtrs_.size() < slots) {
        synPtrs_.resize(slots);
        winPtrs_.resize(slots);
    }
}

void
LifetimeSimulator::startLane(std::size_t slot, const LifetimeLane &spec)
{
    require(spec.model != nullptr,
            "LifetimeSimulator: lifetime has no error model");
    Lane &lane = lanes_[slot];
    lane.model = spec.model;
    lane.rng = Rng(spec.seed);
    lane.rule = spec.rule;
    lane.tag = spec.tag;
    lane.acc = MonteCarloResult{};
    std::fill(lane.cycleCounts.begin(), lane.cycleCounts.end(), 0);
    lane.cycleOverflow = 0;
    lane.work = MeshWorkCounters{};
    lane.parity = {};
    lane.done = spec.rule.maxTrials == 0;
    states_[slot].clear();
}

MonteCarloResult
LifetimeSimulator::finishLane(std::size_t slot)
{
    Lane &lane = lanes_[slot];
    std::vector<std::size_t> bins(maxCycles_ + 1, 0);
    std::copy(lane.cycleCounts.begin(), lane.cycleCounts.end(),
              bins.begin());
    lane.acc.cycleHistogram =
        Histogram::fromParts(std::move(bins), lane.cycleOverflow);
    lane.acc.finalize();
    return std::move(lane.acc);
}

/**
 * Run slot @p slot's window on its state: windowRounds_ noisy rounds
 * (sample data errors; extract; corrupt with the model's measurement-
 * flip rate) plus one perfect commit round, extracting through the
 * slot's syndrome scratch. RNG draw order per round is data sample,
 * Z flips, X flips, so slot s draws exactly what trial s would.
 */
void
LifetimeSimulator::fillWindow(std::size_t slot)
{
    Lane &lane = lanes_[0];
    ErrorState &state = states_[slot];
    state.clear();
    for (Family &f : families_)
        if (f.decoder)
            f.windows[slot].reset();
    for (int t = 0; t <= windowRounds_; ++t) {
        const bool commit = t == windowRounds_;
        if (!commit)
            lane.model->sample(lane.rng, state);
        for (Family &f : families_) {
            if (!f.decoder)
                continue;
            Syndrome &syn = f.syndromes[slot];
            extractSyndromeInto(state, f.type, syn);
            if (!commit)
                lane.model->flipMeasurements(lane.rng, syn);
            f.windows[slot].recordRound(t, syn);
        }
    }
}

void
LifetimeSimulator::runGroup(std::size_t count)
{
    const bool windowed = windowRounds_ > 0;
    Lane &lane = lanes_[0];
    ensureSlots(count);

    // Produce every slot up front — the exact RNG draw sequence of
    // `count` consecutive trials. Phases take one coarse span per
    // group rather than one per slot.
    {
        obs::TraceSpan span(obs::Stage::Sample);
        for (std::size_t s = 0; s < count; ++s) {
            if (windowed) {
                fillWindow(s);
            } else {
                if (!lifetimeMode_)
                    states_[s].clear();
                lane.model->sample(lane.rng, states_[s]);
            }
        }
    }

    // Per family: extract, decode the whole group, apply. Z and X
    // corrections touch disjoint planes, so classifying afterwards
    // sees the same residual as decoding and classifying in turn.
    for (Family &f : families_) {
        if (!f.decoder)
            continue;
        if (windowed) {
            for (std::size_t s = 0; s < count; ++s)
                winPtrs_[s] = &f.windows[s];
            obs::TraceSpan span(obs::Stage::Decode);
            f.decoder->decodeWindowBatch(winPtrs_.data(), count, *ws_);
        } else {
            {
                obs::TraceSpan span(obs::Stage::Extract);
                for (std::size_t s = 0; s < count; ++s) {
                    extractSyndromeInto(states_[s], f.type,
                                        f.syndromes[s]);
                    synPtrs_[s] = &f.syndromes[s];
                }
            }
            obs::TraceSpan span(obs::Stage::Decode);
            f.decoder->decodeBatch(synPtrs_.data(), count, *ws_);
        }
        for (std::size_t s = 0; s < count; ++s)
            ws_->laneCorrections[s].applyTo(states_[s], f.type);
    }

    // Settle in trial order: telemetry and counter updates interleave
    // exactly as trial-at-a-time decoding would (decoders retain
    // per-lane stats, so Z and X stats of one trial are recorded
    // back-to-back even though the decodes ran family-batched).
    obs::TraceSpan classifySpan(obs::Stage::Classify);
    for (std::size_t s = 0; s < count && !lane.done; ++s) {
        std::array<const MeshDecodeStats *, 2> stats{};
        for (std::size_t fi = 0; fi < families_.size(); ++fi)
            if (families_[fi].decoder)
                stats[fi] = families_[fi].decoder->meshStats(s);
        settleTrial(lane, states_[s], stats);
    }
}

void
LifetimeSimulator::settleTrial(
    Lane &lane, const ErrorState &state,
    const std::array<const MeshDecodeStats *, 2> &stats)
{
    MonteCarloResult &acc = lane.acc;
    bool failed = false;
    for (std::size_t fi = 0; fi < families_.size(); ++fi) {
        const Family &f = families_[fi];
        if (!f.decoder) {
            require(state.weight(f.type) == 0,
                    "LifetimeSimulator: X errors present but no X "
                    "decoder");
            continue;
        }
        if (stats[fi] && windowRounds_ == 0)
            recordMeshStats(*stats[fi], lane);
        if (lifetimeMode_) {
            const bool parity = crossingParity(state, f.type);
            failed |= parity != lane.parity[fi];
            lane.parity[fi] = parity;
        } else {
            const FailureReport report = classifyResidual(state, f.type);
            if (report.syndromeNonzero)
                ++acc.syndromeResidualFailures;
            failed |= report.failed();
        }
    }
    ++acc.trials;
    if (failed)
        ++acc.failures;
    lane.done = acc.trials >= lane.rule.maxTrials ||
                (acc.trials >= lane.rule.minTrials &&
                 acc.failures >= lane.rule.targetFailures);
}

MeshDecoder *
LifetimeSimulator::lifetimePump() const
{
    auto *mesh = lifetimeMode_
                     ? dynamic_cast<MeshDecoder *>(families_[0].decoder)
                     : nullptr;
    return mesh && mesh->batchLanes() > 1 ? mesh : nullptr;
}

std::size_t
LifetimeSimulator::lifetimeLanes() const
{
    const MeshDecoder *pump = lifetimePump();
    return pump ? static_cast<std::size_t>(pump->batchLanes()) : 1;
}

std::size_t
LifetimeSimulator::groupLanes() const
{
    return !lifetimeMode_ && families_[0].decoder->meshStats() != nullptr
               ? batchLanes_
               : 1;
}

void
LifetimeSimulator::runLifetimes(LifetimeSource &source)
{
    if (MeshDecoder *pump = lifetimePump()) {
        pumpLifetimes(source, *pump);
        return;
    }
    for (LifetimeLane spec; source.claim(spec);)
        source.finish(spec.tag, runAlone(spec));
}

MonteCarloResult
LifetimeSimulator::runAlone(const LifetimeLane &spec)
{
    lanes_.resize(1);
    ensureSlots(1);
    startLane(0, spec);
    Lane &lane = lanes_[0];
    const std::size_t group = groupLanes();
    while (!lane.done)
        runGroup(std::min(group, lane.rule.maxTrials - lane.acc.trials));
    return finishLane(0);
}

void
LifetimeSimulator::pumpLifetimes(LifetimeSource &source, MeshDecoder &pump)
{
    const auto lanes = static_cast<std::size_t>(pump.batchLanes());
    lanes_.resize(lanes);
    ensureSlots(lanes);
    pending_.resize(lanes);
    pendingHead_ = pendingSize_ = 0;
    source_ = &source;
    for (std::size_t s = 0; s < lanes && claimInto(s); ++s) {
    }
    // Sampling, extraction and classification run inside the pump's
    // callbacks, so this one span covers them too.
    obs::TraceSpan span(obs::Stage::Decode);
    pump.decodeLifetimes(*this);
    source_ = nullptr;
}

/** Sample slot @p slot's next round and queue its Z syndrome. */
void
LifetimeSimulator::beginRound(std::size_t slot)
{
    Lane &lane = lanes_[slot];
    lane.model->sample(lane.rng, states_[slot]);
    extractSyndromeInto(states_[slot], ErrorType::Z,
                        families_[0].syndromes[slot]);
    pending_[(pendingHead_ + pendingSize_) % pending_.size()] = slot;
    ++pendingSize_;
}

bool
LifetimeSimulator::next(const Syndrome *&syndrome, std::size_t &lifetime)
{
    if (pendingSize_ == 0)
        return false;
    lifetime = pending_[pendingHead_];
    pendingHead_ = (pendingHead_ + 1) % pending_.size();
    --pendingSize_;
    syndrome = &families_[0].syndromes[lifetime];
    return true;
}

void
LifetimeSimulator::finished(std::size_t lifetime,
                            const Correction &correction,
                            const MeshDecodeStats &stats)
{
    // The rest of the round, as runGroup runs it: apply Z, decode and
    // apply X (a batch of one on the X decoder), then settle.
    const std::size_t slot = lifetime;
    Lane &lane = lanes_[slot];
    ErrorState &state = states_[slot];
    correction.applyTo(state, ErrorType::Z);
    // Lifetimes share the decoders, so each tallies its own decodes.
    lane.work.add(stats);
    std::array<const MeshDecodeStats *, 2> laneStats{&stats, nullptr};
    Family &x = families_[1];
    if (x.decoder) {
        extractSyndromeInto(state, x.type, x.syndromes[slot]);
        const Syndrome *syn = &x.syndromes[slot];
        x.decoder->decodeBatch(&syn, 1, *ws_);
        ws_->laneCorrections[0].applyTo(state, x.type);
        laneStats[1] = x.decoder->meshStats(0);
        lane.work.add(*laneStats[1]);
    }
    settleTrial(lane, state, laneStats);
    if (!lane.done) {
        beginRound(slot);
        return;
    }
    // A lifetime that ended hands its slot to the next one claimed.
    endLifetime(slot);
    claimInto(slot);
}

/** Give pump slot @p slot's ended lifetime, with its work, back. */
void
LifetimeSimulator::endLifetime(std::size_t slot)
{
    const std::size_t tag = lanes_[slot].tag;
    MonteCarloResult result = finishLane(slot);
    lanes_[slot].work.exportTo(result.metrics);
    source_->finish(tag, std::move(result));
}

/**
 * Start the source's next nonempty lifetime in @p slot and queue its
 * first round; false once the source is dry.
 */
bool
LifetimeSimulator::claimInto(std::size_t slot)
{
    for (LifetimeLane spec; source_->claim(spec);) {
        startLane(slot, spec);
        if (!lanes_[slot].done) {
            beginRound(slot);
            return true;
        }
        endLifetime(slot);
    }
    return false;
}

} // namespace nisqpp
