#include "sim/monte_carlo.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

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

StopRule
StopRule::scaledByEnv() const
{
    const char *env = std::getenv("NISQPP_TRIALS");
    if (!env || !*env)
        return *this;
    char *end = nullptr;
    const double mult = std::strtod(env, &end);
    if (end == env || (end && *end != '\0') || !std::isfinite(mult) ||
        mult <= 0 || mult > kMaxTrialsMultiplier) {
        warn("NISQPP_TRIALS='" + std::string(env) +
             "' is not a positive multiplier <= 1e6; using 1.0");
        return *this;
    }
    return scaled(mult);
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
                                     const ErrorModel &model,
                                     Decoder &zDecoder, Decoder *xDecoder,
                                     std::uint64_t seed,
                                     bool throughCircuits,
                                     TrialWorkspace *workspace)
    : lattice_(lattice), model_(model), rng_(seed),
      throughCircuits_(throughCircuits),
      noisyReadout_(model.measurementFlipRate() > 0.0),
      families_{{{ErrorType::Z, &zDecoder, {}, {}},
                 {ErrorType::X, xDecoder, {}, {}}}},
      ws_(workspace)
{
    if (throughCircuits_)
        circuit_ = std::make_unique<StabilizerCircuit>(lattice);
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
LifetimeSimulator::recordMeshStats(const MeshDecodeStats *stats,
                                   MonteCarloResult &acc) const
{
    if (!stats)
        return;
    acc.cycles.add(stats->cycles);
    if (acc.cycleHistogram.numBins() > 1)
        acc.cycleHistogram.add(static_cast<std::size_t>(stats->cycles));
}

void
LifetimeSimulator::extractInto(const ErrorState &state, ErrorType type,
                               Syndrome &out)
{
    if (throughCircuits_)
        circuit_->extractInto(state, type, out);
    else
        extractSyndromeInto(state, type, out);
}

void
LifetimeSimulator::ensureLanes(std::size_t count)
{
    while (states_.size() < count)
        states_.emplace_back(lattice_);
    const int total = windowRounds_ + 1;
    for (Family &f : families_) {
        if (!f.decoder)
            continue;
        while (f.syndromes.size() < count)
            f.syndromes.emplace_back(lattice_, f.type);
        if (windowRounds_ == 0)
            continue;
        if (!f.windows.empty() && f.windows[0].rounds() != total)
            f.windows.clear();
        while (f.windows.size() < count)
            f.windows.emplace_back(lattice_, f.type, total);
    }
    synPtrs_.resize(count);
    winPtrs_.resize(count);
}

/**
 * Run lane @p lane's window on its state: windowRounds_ noisy rounds
 * (sample data errors; extract; corrupt with the model's measurement-
 * flip rate) plus one perfect commit round, extracting through the
 * lane's syndrome scratch. RNG draw order per round is data sample,
 * Z flips, X flips, so lane l draws exactly what trial l would.
 */
void
LifetimeSimulator::fillWindows(std::size_t lane)
{
    ErrorState &state = states_[lane];
    state.clear();
    for (Family &f : families_)
        if (f.decoder)
            f.windows[lane].reset();
    for (int t = 0; t <= windowRounds_; ++t) {
        const bool commit = t == windowRounds_;
        if (!commit)
            model_.sample(rng_, state);
        for (Family &f : families_) {
            if (!f.decoder)
                continue;
            Syndrome &syn = f.syndromes[lane];
            extractInto(state, f.type, syn);
            if (!commit)
                model_.flipMeasurements(rng_, syn);
            f.windows[lane].recordRound(t, syn);
        }
    }
}

bool
LifetimeSimulator::runGroup(std::size_t count, MonteCarloResult &acc,
                            const StopRule &rule)
{
    const bool windowed = windowRounds_ > 0;
    ensureLanes(count);

    // Produce every lane up front — the exact RNG draw sequence of
    // `count` consecutive trials. Phases take one coarse span per
    // group rather than one per lane.
    {
        obs::TraceSpan span(obs::Stage::Sample);
        for (std::size_t l = 0; l < count; ++l) {
            if (windowed) {
                fillWindows(l);
            } else {
                if (!lifetimeMode_)
                    states_[l].clear();
                model_.sample(rng_, states_[l]);
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
            for (std::size_t l = 0; l < count; ++l)
                winPtrs_[l] = &f.windows[l];
            obs::TraceSpan span(obs::Stage::Decode);
            f.decoder->decodeWindowBatch(winPtrs_.data(), count, *ws_);
        } else {
            {
                obs::TraceSpan span(obs::Stage::Extract);
                for (std::size_t l = 0; l < count; ++l) {
                    extractInto(states_[l], f.type, f.syndromes[l]);
                    synPtrs_[l] = &f.syndromes[l];
                }
            }
            obs::TraceSpan span(obs::Stage::Decode);
            f.decoder->decodeBatch(synPtrs_.data(), count, *ws_);
        }
        for (std::size_t l = 0; l < count; ++l)
            ws_->laneCorrections[l].applyTo(states_[l], f.type);
    }

    // Record and classify in trial order: telemetry and counter
    // updates interleave exactly as trial-at-a-time decoding would
    // (decoders retain per-lane stats, so Z and X stats of trial l
    // are recorded back-to-back even though the decodes ran
    // family-batched).
    obs::TraceSpan classifySpan(obs::Stage::Classify);
    for (std::size_t l = 0; l < count; ++l) {
        bool failed = false;
        for (Family &f : families_) {
            if (!f.decoder) {
                require(states_[l].weight(f.type) == 0,
                        "LifetimeSimulator: X errors present but no X "
                        "decoder");
                continue;
            }
            if (!windowed)
                recordMeshStats(f.decoder->meshStats(l), acc);
            if (lifetimeMode_) {
                const bool parity = crossingParity(states_[l], f.type);
                failed |= parity != f.parity;
                f.parity = parity;
            } else {
                const FailureReport report =
                    classifyResidual(states_[l], f.type);
                if (report.syndromeNonzero)
                    ++acc.syndromeResidualFailures;
                failed |= report.failed();
            }
        }
        ++acc.trials;
        if (failed)
            ++acc.failures;
        if (acc.trials >= rule.minTrials &&
            acc.failures >= rule.targetFailures)
            return true;
    }
    return false;
}

MonteCarloResult
LifetimeSimulator::run(const StopRule &rule)
{
    MonteCarloResult acc;
    acc.cycleHistogram =
        Histogram(static_cast<std::size_t>(128 * (lattice_.gridSize()
                                                  + 2)));
    // Single-round protocols never call flipMeasurements: running a
    // noisy-readout model without a window would silently simulate
    // q = 0 while reporting a q > 0 configuration.
    require(windowRounds_ > 0 || !noisyReadout_,
            "LifetimeSimulator: measurement noise (q > 0) requires a "
            "decode window (setMeasurementWindow)");
    require(windowRounds_ == 0 || !lifetimeMode_,
            "LifetimeSimulator: windowed decoding and lifetime mode are "
            "mutually exclusive (use the streaming pipeline for "
            "persistent windowed runs)");
    const std::size_t lanes = lifetimeMode_ ? 1 : batchLanes_;
    while (acc.trials < rule.maxTrials)
        if (runGroup(std::min(lanes, rule.maxTrials - acc.trials), acc,
                     rule))
            break;
    acc.finalize();
    return acc;
}

} // namespace nisqpp
