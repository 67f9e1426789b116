/**
 * @file
 * Monte Carlo lifetime simulation (paper Section VII, "Simulation
 * Techniques"): each cycle injects stochastic errors on the data qubits,
 * extracts the error syndrome (directly or through the Fig. 3 stabilizer
 * circuits), hands it to the decoder under test, applies the returned
 * correction, and classifies the residual. The ratio of logical errors
 * to cycles is the logical error rate PL.
 */

#ifndef NISQPP_SIM_MONTE_CARLO_HH
#define NISQPP_SIM_MONTE_CARLO_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "decoders/decoder.hh"
#include "obs/metrics.hh"
#include "surface/error_model.hh"
#include "surface/logical.hh"
#include "surface/stabilizer_circuit.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

/**
 * Largest accepted trial-budget multiplier (NISQPP_TRIALS,
 * --trials-scale); larger values are almost certainly typos and would
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

    /**
     * Scale trial counts by the NISQPP_TRIALS environment variable
     * (a multiplier, default 1.0) so benches can be re-run at higher
     * statistical resolution without recompiling. Malformed values
     * (non-numeric, non-positive, NaN/inf, above
     * kMaxTrialsMultiplier) are rejected with a warning and leave
     * the rule unchanged.
     */
    StopRule scaledByEnv() const;
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

/**
 * Per-round, code-capacity lifetime simulator for one error type.
 * Dephasing noise exercises the Z-error path the paper evaluates; the
 * depolarizing channel runs both families through two decoders.
 *
 * The per-trial hot path is allocation-free: syndromes are extracted
 * into member scratch, decoders borrow buffers from a TrialWorkspace
 * (the engine shares one per worker thread across shards; a simulator
 * without one owns a private workspace). Every protocol — per-round,
 * lifetime, windowed, at any batch size — runs through one group
 * runner; a scalar trial is a group of one.
 */
class LifetimeSimulator
{
  public:
    /**
     * @param lattice  Lattice under test.
     * @param model    Error channel sampled each round.
     * @param zDecoder Decoder for Z data errors (X-ancilla syndromes).
     * @param xDecoder Decoder for X data errors; may be null when the
     *                 channel produces no X component (pure dephasing).
     * @param seed     Master RNG seed (deterministic reproduction).
     * @param throughCircuits Extract syndromes by running the Fig. 3
     *                 stabilizer circuits instead of direct parity.
     * @param workspace Scratch shared with other simulators on the
     *                 same thread; null = allocate a private one.
     */
    LifetimeSimulator(const SurfaceLattice &lattice,
                      const ErrorModel &model, Decoder &zDecoder,
                      Decoder *xDecoder, std::uint64_t seed,
                      bool throughCircuits = false,
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
    bool lifetimeMode() const { return lifetimeMode_; }

    /**
     * Group up to @p lanes trials per Decoder::decodeBatch (or
     * decodeWindowBatch) call, feeding the lane-packed substrates of
     * the mesh and union-find decoders. Every trial runs through one
     * group runner whatever the group size: sampling, extraction and
     * classification happen lane by lane in the exact order of
     * consecutive trials, so every aggregate — counters, cycle
     * statistics, histograms — is byte-identical to lanes = 1 for the
     * same seed. Ignored in lifetime mode, where round k + 1's state
     * depends on round k's correction (groups of one).
     */
    void setBatchLanes(std::size_t lanes);
    std::size_t batchLanes() const { return batchLanes_; }

    /**
     * Faulty-measurement windowed protocol: each trial clears the
     * state, runs @p rounds noisy measurement rounds (data errors
     * sampled per round, measured syndromes corrupted by the model's
     * flip rate q) plus one perfect commit round, hands the
     * accumulated SyndromeWindow to Decoder::decodeWindowBatch,
     * commits the returned correction at the window boundary and
     * classifies the residual. 0 (the default) keeps the single-round
     * protocols. Mutually exclusive with lifetime mode (the streaming
     * pipeline owns the persistent-state windowed regime); mesh cycle
     * telemetry is not collected in windowed mode.
     */
    void setMeasurementWindow(int rounds);
    int measurementWindow() const { return windowRounds_; }

    /** Run @p rule-governed trials and aggregate. */
    MonteCarloResult run(const StopRule &rule);

  private:
    /** One error family: its decoder and per-lane scratch. */
    struct Family
    {
        ErrorType type;
        Decoder *decoder; ///< null: the channel has no such errors
        std::vector<Syndrome> syndromes;     ///< extraction, per lane
        std::vector<SyndromeWindow> windows; ///< windowed mode, per lane
        bool parity = false; ///< lifetime-mode crossing parity tracker
    };

    /**
     * Run one group of @p count trials: produce every lane (sample a
     * round, or fill a window), then per family extract, decode the
     * whole group in one call and apply the corrections, then record
     * and classify lane by lane in trial order. Returns true when
     * @p rule stops the run mid-group; the remaining lanes are
     * dropped, exactly as if those trials had never run.
     */
    bool runGroup(std::size_t count, MonteCarloResult &acc,
                  const StopRule &rule);
    void ensureLanes(std::size_t count);
    void fillWindows(std::size_t lane);
    void recordMeshStats(const MeshDecodeStats *stats,
                         MonteCarloResult &acc) const;
    void extractInto(const ErrorState &state, ErrorType type,
                     Syndrome &out);

    const SurfaceLattice &lattice_;
    const ErrorModel &model_;
    Rng rng_;
    bool throughCircuits_;
    bool lifetimeMode_ = false;
    /** model_.measurementFlipRate() > 0, cached off the hot path. */
    bool noisyReadout_ = false;
    /** Built only for circuit-based extraction (it is not cheap). */
    std::unique_ptr<StabilizerCircuit> circuit_;
    std::size_t batchLanes_ = 1;
    int windowRounds_ = 0; ///< noisy rounds per window; 0 = off
    /** Z first, then X: the per-round RNG and decode order. */
    std::array<Family, 2> families_;
    /** Per-lane trial state; lane 0 persists in lifetime mode. */
    std::vector<ErrorState> states_;
    std::vector<const Syndrome *> synPtrs_;
    std::vector<const SyndromeWindow *> winPtrs_;
    TrialWorkspace *ws_;                 ///< borrowed (or owned_)
    std::unique_ptr<TrialWorkspace> owned_;
};

} // namespace nisqpp

#endif // NISQPP_SIM_MONTE_CARLO_HH
