/**
 * @file
 * Monte Carlo lifetime simulation (paper Section VII, "Simulation
 * Techniques"): each cycle injects stochastic errors on the data qubits,
 * extracts the error syndrome by parity (the Fig. 3 stabilizer circuits
 * give the same syndromes, which a property test pins), hands it to the
 * decoder under test, applies the returned correction, and classifies
 * the residual. The ratio of logical errors to cycles is the logical
 * error rate PL.
 */

#ifndef NISQPP_SIM_MONTE_CARLO_HH
#define NISQPP_SIM_MONTE_CARLO_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/mesh_decoder.hh"
#include "decoders/decoder.hh"
#include "noise/noise_model.hh"
#include "obs/metrics.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

/**
 * Largest accepted trial-budget multiplier (--trials-scale,
 * NISQPP_TRIALS); larger values are almost certainly typos and would
 * schedule practically unbounded runs.
 */
inline constexpr double kMaxTrialsMultiplier = 1e6;

/** Stopping rule for adaptive sampling. */
struct StopRule
{
    std::size_t minTrials = 1000;
    std::size_t maxTrials = 20000;
    std::size_t targetFailures = 100; ///< stop early once this many seen

    /**
     * Scale min/max trial counts by @p mult (> 0); the failure target
     * is left alone so early stopping keeps its meaning.
     */
    StopRule scaled(double mult) const;

};

/** Aggregate result of one (lattice, p, decoder) Monte Carlo run. */
struct MonteCarloResult
{
    std::size_t trials = 0;
    std::size_t failures = 0;
    std::size_t syndromeResidualFailures = 0; ///< subset: residual syndrome
    double logicalErrorRate = 0.0;
    WilsonInterval ci{0.0, 1.0};

    /** Mesh decoder execution cycles per round (when applicable). */
    RunningStats cycles;
    /** Distribution of cycles (Fig. 10(c)); sized in the simulator. */
    Histogram cycleHistogram{0};

    /**
     * Deterministic work counters attached to this run (filled by the
     * engine's shard runner: engine.* trial counts plus the decoders'
     * exported decoder.* counters). Riding inside the result means
     * metrics inherit the engine's ordered prefix merge — shards past
     * the stop point are discarded together with their counters, so
     * aggregates are byte-identical at any thread count.
     */
    obs::MetricSet metrics;

    /**
     * Fold another accumulator into this one (parallel shard
     * reduction); call finalize() afterwards to refresh the derived
     * rate and confidence interval. An empty accumulator adopts the
     * other's histogram binning.
     */
    void merge(const MonteCarloResult &other);

    /** Recompute logicalErrorRate and ci from trials/failures. */
    void finalize();
};

class TrialWorkspace;

/** One independent lifetime (or per-round trial stream) to run. */
struct LifetimeLane
{
    const NoiseModel *model = nullptr; ///< channel sampled each round
    std::uint64_t seed = 0;            ///< the lane's own RNG stream
    StopRule rule{};
    std::size_t tag = 0; ///< the source's handle, passed back on finish
};

/**
 * Supplies lifetimes to LifetimeSimulator::runLifetimes and takes back
 * their results.
 */
class LifetimeSource
{
  public:
    /** Fill @p lane with the next lifetime to run; false when none. */
    virtual bool claim(LifetimeLane &lane) = 0;

    /**
     * The lifetime claimed with @p tag ended: @p result is its
     * finalized aggregate. Lifetimes that shared a lane decoder carry
     * their share of its decoder.* counters in result.metrics.
     */
    virtual void finish(std::size_t tag, MonteCarloResult result) = 0;

  protected:
    ~LifetimeSource() = default;
};

/**
 * Per-round, code-capacity lifetime simulator for one error type.
 * Dephasing noise exercises the Z-error path the paper evaluates; the
 * depolarizing channel runs both families through two decoders.
 *
 * The per-trial hot path is allocation-free: syndromes are extracted
 * into member scratch, decoders borrow buffers from a TrialWorkspace
 * (the engine shares one per worker thread across shards; a simulator
 * without one owns a private workspace). A lifetime runs through one
 * group runner at any batch size — a scalar trial is a group of one —
 * unless several share a mesh decoder (runLifetimes).
 */
class LifetimeSimulator : private LifetimeFeed
{
  public:
    /**
     * @param lattice  Lattice under test.
     * @param zDecoder Decoder for Z data errors (X-ancilla syndromes).
     * @param xDecoder Decoder for X data errors; may be null when the
     *                 channel produces no X component (pure dephasing).
     * @param workspace Scratch shared with other simulators on the
     *                 same thread; null = allocate a private one.
     */
    LifetimeSimulator(const SurfaceLattice &lattice, Decoder &zDecoder,
                      Decoder *xDecoder,
                      TrialWorkspace *workspace = nullptr);

    ~LifetimeSimulator();

    /**
     * Select the Monte Carlo protocol. Per-round mode (default off)
     * clears the state each cycle and counts a failure when the
     * residual has a nonzero syndrome or flips the crossing logical.
     * Lifetime mode — the paper's protocol — keeps the residual across
     * cycles (imperfectly corrected errors are re-decoded next round)
     * and counts one logical error whenever the crossing parity of the
     * post-correction state flips.
     */
    void setLifetimeMode(bool lifetime) { lifetimeMode_ = lifetime; }

    /**
     * Size the lane groups (--batch): a Z decoder with a lane engine
     * decodes up to @p lanes consecutive per-round or windowed trials
     * per call (groupLanes).
     * Sampling, extraction and classification happen trial by trial
     * in the exact order of consecutive trials, so every aggregate —
     * counters, cycle statistics, histograms — is byte-identical to
     * lanes = 1 for the same seed.
     */
    void setBatchLanes(std::size_t lanes);

    /**
     * Faulty-measurement windowed protocol: each trial clears the
     * state, runs @p rounds noisy measurement rounds (data errors
     * sampled per round, measured syndromes corrupted by the model's
     * flip rate q) plus one perfect commit round, hands the
     * accumulated SyndromeWindow to Decoder::decodeWindowBatch,
     * commits the returned correction at the window boundary and
     * classifies the residual. 0 (the default) keeps the single-round
     * protocols, which ignore the model's flip rate q. Not for
     * lifetime mode (the streaming pipeline owns the persistent-state
     * windowed regime); CellSpec::validate rejects both combinations.
     * Mesh cycle telemetry is not collected in windowed mode.
     */
    void setMeasurementWindow(int rounds);

    /**
     * Lifetimes runLifetimes runs side by side: in lifetime mode on a
     * mesh Z decoder, its lane count (MeshDecoder::batchLanes), else 1.
     * Only the mesh qualifies: every counter it exports is a sum of
     * the MeshDecodeStats of its decodes, so lifetimes sharing it can
     * report exact counters of their own.
     */
    std::size_t lifetimeLanes() const;

    /**
     * Run every lifetime @p source hands out, each on its own RNG
     * stream from its seed until its rule stops it, and give each
     * result back to the source as it ends; no result depends on the
     * lifetimes that ran beside it. With lifetimeLanes() > 1 they run
     * side by side through the Z decoder's lane pump: each lifetime's
     * next round starts the moment its last decode finishes, and a
     * lifetime that ends hands its lane to the next one claimed.
     * Otherwise they run one after another.
     */
    void runLifetimes(LifetimeSource &source);

  private:
    /** One error family: its decoder and per-slot scratch. */
    struct Family
    {
        ErrorType type;
        Decoder *decoder; ///< null: the channel has no such errors
        std::vector<Syndrome> syndromes;     ///< extraction, per slot
        std::vector<SyndromeWindow> windows; ///< windowed mode, per slot
    };

    /** A running lifetime (or per-round trial stream). */
    struct Lane
    {
        const NoiseModel *model = nullptr;
        Rng rng{0};
        StopRule rule{};
        std::size_t tag = 0;
        MonteCarloResult acc;
        /**
         * Cycle histogram, built into acc when the lifetime ends:
         * counts up to the largest value seen, then the overflow
         * (a pump runs many lanes at once). @{
         */
        std::vector<std::uint64_t> cycleCounts;
        std::uint64_t cycleOverflow = 0;
        /** @} */
        MeshWorkCounters work; ///< the pump's tally of its decodes
        std::array<bool, 2> parity{}; ///< lifetime crossing parities
        bool done = true;
    };

    /**
     * Start @p spec in lane @p slot (state slot @p slot): a fresh RNG
     * stream, aggregate and parities on a clean lattice.
     */
    void startLane(std::size_t slot, const LifetimeLane &spec);
    /** Build lane @p slot's cycle histogram and finalize its result. */
    MonteCarloResult finishLane(std::size_t slot);

    /** Run @p spec alone in lane 0, group by group. */
    MonteCarloResult runAlone(const LifetimeLane &spec);

    /**
     * Run one group of @p count consecutive trials of lane 0: produce
     * every slot (sample a round, or fill a window), then per family
     * extract, decode the whole group in one call and apply the
     * corrections, then settle slot by slot in trial order. When the
     * rule stops the lane mid-group the remaining slots are dropped,
     * exactly as if those trials had never run.
     */
    void runGroup(std::size_t count);

    /**
     * Consecutive trials decoded per call outside the lifetime pump:
     * the batch lanes when the Z decoder has a lane engine (it reports
     * mesh telemetry: the mesh and the tiered decoder), else 1, since
     * every other decoder decodes a group as that many scalar decodes.
     * Lifetime mode runs groups of one as well: round k + 1 depends on
     * round k's correction, so lifetimes run side by side instead
     * (lifetimeLanes).
     */
    std::size_t groupLanes() const;

    /** The Z decoder when lifetimes can run as its lanes, else null. */
    MeshDecoder *lifetimePump() const;

    /** runLifetimes' lane pump (see there). @{ */
    void pumpLifetimes(LifetimeSource &source, MeshDecoder &pump);
    bool claimInto(std::size_t slot);
    void endLifetime(std::size_t slot);
    void beginRound(std::size_t slot);
    bool next(const Syndrome *&syndrome, std::size_t &lifetime) override;
    void finished(std::size_t lifetime, const Correction &correction,
                  const MeshDecodeStats &stats) override;
    /** @} */

    /**
     * Record a trial's cycle telemetry (@p stats per family, null
     * when absent), classify @p state and count the trial into
     * @p lane, marking it done when its rule stops it.
     */
    void settleTrial(Lane &lane, const ErrorState &state,
                     const std::array<const MeshDecodeStats *, 2> &stats);
    void ensureSlots(std::size_t slots);
    void fillWindow(std::size_t slot);
    void recordMeshStats(const MeshDecodeStats &stats, Lane &lane) const;

    const SurfaceLattice &lattice_;
    /** Largest cycle count the histograms track exactly. */
    const std::size_t maxCycles_;
    bool lifetimeMode_ = false;
    std::size_t batchLanes_ = 1;
    int windowRounds_ = 0; ///< noisy rounds per window; 0 = off
    /** Z first, then X: the per-round RNG and decode order. */
    std::array<Family, 2> families_;
    /** Running lifetimes: lane 0 alone, or one per pump slot. */
    std::vector<Lane> lanes_;
    /**
     * Trial states, one per slot: a group's consecutive trials, or the
     * pump's lifetimes (slot l is lane l's persistent state).
     */
    std::vector<ErrorState> states_;
    LifetimeSource *source_ = nullptr; ///< pumpLifetimes' source
    /** pumpLifetimes' pending slots: a FIFO ring. @{ */
    std::vector<std::size_t> pending_;
    std::size_t pendingHead_ = 0;
    std::size_t pendingSize_ = 0;
    /** @} */
    std::vector<const Syndrome *> synPtrs_;
    std::vector<const SyndromeWindow *> winPtrs_;
    TrialWorkspace *ws_;                 ///< borrowed (or owned_)
    std::unique_ptr<TrialWorkspace> owned_;
};

} // namespace nisqpp

#endif // NISQPP_SIM_MONTE_CARLO_HH
