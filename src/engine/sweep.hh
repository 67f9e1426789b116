/**
 * @file
 * Parallel experiment engine: shards each (code distance, physical
 * rate) Monte Carlo grid cell into fixed-size trial shards, runs the
 * shards on the engine's own worker threads, and merges shard results
 * in shard-index order. Because shard seeds derive only from the master
 * seed (via Rng::split child streams) and the merge order is fixed, an
 * N-thread run produces byte-identical aggregates to a 1-thread run.
 *
 * Engine::runCells is the one Monte Carlo invocation: it starts
 * min(threads, unclaimed shards) workers over all of its cells and
 * joins them before it returns; worker 0 is the calling thread, so a
 * 1-thread engine or a one-shard cell starts no thread at all. Cells
 * that can share decoders form groups, and every worker walks the
 * groups in the same order (largest distance first, then highest
 * rate), claiming shards in index order until a group is drained, so
 * an early-stopped cell never runs a shard past its stop index. A
 * worker runs one claimed shard on fresh decoders; in lifetime mode on
 * the mesh decoder it runs as many shards side by side as the decoder
 * has lanes, claiming the next shard whenever one ends, until the
 * group is drained.
 *
 * Protocol note: each shard is its own lifetime from a clean lattice
 * state, whether it runs alone or as a lane. In lifetime mode a cell
 * is therefore sampled as independent logical-memory *segments* of
 * shardTrials rounds rather than one continuous run — statistically
 * equivalent in steady state, but each segment carries a warmup
 * transient of order d rounds, so very small shardTrials slightly
 * undercounts PL. Raise EngineOptions::shardTrials (or use one shard:
 * shardTrials >= maxTrials) when segment boundaries matter.
 */

#ifndef NISQPP_ENGINE_SWEEP_HH
#define NISQPP_ENGINE_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "noise/noise_model.hh"
#include "sim/monte_carlo.hh"
#include "sim/threshold.hh"

namespace nisqpp {

class TrialWorkspace;

/** Builds a decoder for a lattice/type; lets sweeps construct per-d. */
using DecoderFactory = std::function<std::unique_ptr<Decoder>(
    const SurfaceLattice &, ErrorType)>;

/** Configuration of one logical-error-rate sweep. */
struct SweepConfig
{
    std::vector<int> distances{3, 5, 7, 9};
    std::vector<double> physicalRates;
    /**
     * Noise model shape (channel kind, bias, measurement flip rate q);
     * the physical rate p is the sweep axis. Defaults to pure
     * dephasing with perfect measurement (the paper's setup).
     */
    NoiseSpec noise{};
    /**
     * Noisy measurement rounds per decode window (plus one perfect
     * commit round); 0 = single-round decoding. Usually set alongside
     * noise.q > 0.
     */
    int windowRounds = 0;
    bool lifetimeMode = false; ///< the paper's persistent-state protocol
    StopRule stopRule{};
    std::uint64_t seed = 0x5150f00dULL;

    /** Log-spaced physical error rates between @p lo and @p hi. */
    static std::vector<double> logSpaced(double lo, double hi, int count);
};

/** Results of one sweep: a curve per distance + per-point telemetry. */
struct SweepResult
{
    std::vector<ErrorRateCurve> curves;
    /** cellStats[di][pi] = full Monte Carlo result for that grid point. */
    std::vector<std::vector<MonteCarloResult>> cells;
};

/** Tuning knobs of the parallel engine. */
struct EngineOptions
{
    /**
     * Most worker threads an invocation runs, the calling thread
     * included; 0 selects hardware concurrency.
     */
    int threads = 1;

    /**
     * Trials per shard: the unit of parallelism AND of early-stop
     * granularity. Results are invariant under the thread count but
     * NOT under this value (it fixes the shard seed streams), so keep
     * it constant when comparing runs.
     */
    std::size_t shardTrials = 512;

    /**
     * Per-round and windowed trials grouped per Decoder::decodeBatch /
     * decodeWindowBatch call (LifetimeSimulator::setBatchLanes) when
     * the Z decoder has a lane engine (the mesh and the tiered
     * decoder); every other decoder runs groups of one
     * (LifetimeSimulator::groupLanes). It does not apply to lifetime
     * cells, whose rounds each depend on the last: the decoder sizes
     * those, running as many shards side by side as the mesh has lanes
     * (LifetimeSimulator::lifetimeLanes; one shard at a time
     * otherwise). Aggregates are byte-identical for every value (and
     * every thread count) at a fixed seed; only throughput changes.
     */
    std::size_t batchLanes = 1;
};

/** Largest accepted round-group size (scratch-memory guard). */
inline constexpr std::size_t kMaxBatchLanes = 4096;

/** One Monte Carlo grid cell, fully specified for sharded execution. */
struct CellSpec
{
    const SurfaceLattice *lattice = nullptr;
    double physicalRate = 0.0;
    NoiseSpec noise{};    ///< channel kind + eta + measurement q
    int windowRounds = 0; ///< noisy rounds per decode window; 0 = off
    bool lifetimeMode = false;
    StopRule rule{};          ///< already scaled by the caller
    std::uint64_t seed = 0;   ///< cell master seed
    const DecoderFactory *factory = nullptr;
    /** Per-round trials per decodeBatch group; 0 = engine default. */
    std::size_t batchLanes = 0;

    /**
     * Die with one clear message on a cell the simulator cannot run: no
     * lattice or factory, batchLanes past kMaxBatchLanes, a decode
     * window in lifetime mode, or measurement noise (q > 0) without a
     * window, which would silently simulate q = 0.
     */
    void validate() const;
};

/**
 * Sharded, deterministic Monte Carlo executor. Each runCells/runJobs
 * call runs its own workers and joins them before returning; runCell
 * and runSweep only build specs for runCells. Calls may repeat but not
 * run concurrently from multiple threads.
 */
class Engine
{
  public:
    explicit Engine(EngineOptions options = {});
    ~Engine();

    int threads() const;
    const EngineOptions &options() const { return options_; }

    /**
     * Run @p specs as one invocation, their shards sharing the
     * workers, and return their finalized results in spec order. Every
     * spec is validated before any worker starts. Results depend only
     * on the specs and shardTrials — never on the thread count or on
     * which other specs share the call.
     */
    std::vector<MonteCarloResult>
    runCells(const std::vector<CellSpec> &specs);

    /** runCells of one spec. */
    MonteCarloResult runCell(const CellSpec &spec);

    /**
     * Run a full (distance, physical-rate) grid for @p factory
     * decoders as one runCells call. Cell seeds are drawn from
     * config.seed in fixed grid order.
     */
    SweepResult runSweep(const SweepConfig &config,
                         const DecoderFactory &factory);

    /**
     * Run independent @p jobs on up to threads() workers, claimed in
     * job order, and return once all of them have finished. Used for
     * grids whose cells are inherently sequential inside (the
     * streaming backlog trajectories): each job must be
     * deterministic and write only its own result slot, which makes
     * the aggregate independent of the thread count by construction.
     */
    void runJobs(std::vector<std::function<void()>> jobs);

    /**
     * Deterministic metrics of every cell collected so far: the merge
     * of each cell's ordered-prefix shard metrics (engine.* trial
     * counters plus exported decoder.* work counters), folded in
     * collect order. Independent of the thread count.
     */
    const obs::MetricSet &metrics() const { return totals_; }

    /**
     * Append the engine's host-dependent runtime counters to @p out:
     * `sched.pool.threads` (the worker cap) and `sched.pool.tasks`
     * (the simulators workers built plus the jobs they ran), and
     * `sched.lifetime.groups/lanes` — the simulators that ran lifetime
     * cells and the shards they ran, so lanes / groups is how many
     * lifetimes shared a decoder. The task count and the grouping are
     * scheduling races at N > 1 threads, hence the masked `sched.*`
     * namespace. Also `sched.simd.width_bits` (64/256/512) and
     * `sched.simd.native` (1 when lane engines at that width run their
     * native-ISA build, simd::nativeEngine): host facts, masked so
     * runs pinned to different widths still compare clean.
     */
    void runtimeMetricsInto(obs::MetricSet &out) const;

    /**
     * Enable periodic checkpointing: every runCells call becomes one
     * ledger invocation, snapshotted to policy.path after every
     * policy.intervalShards shard completions and at each invocation
     * boundary. Set before the first run.
     *
     * With a policy installed, SIGINT/SIGTERM (or requestInterrupt())
     * drains in-flight shards, writes a final checkpoint and throws
     * ckpt::InterruptedError from the interrupted call.
     */
    void setCheckpointPolicy(const ckpt::CheckpointPolicy &policy);

    /**
     * Resume from a loaded ledger: each subsequent runCells call
     * validates its canonical config text against the matching
     * restored invocation (a mismatch — different grid, rates, seed,
     * shardTrials — is a hard ckpt::CheckpointError), restores every
     * cell's merged ordered prefix bit-exactly, and restarts at each
     * cell's first incomplete shard. Completed invocations are
     * restored without recomputation. Because restored accumulators
     * and shard seeds are exact, a resumed run is byte-identical to an
     * uninterrupted one at any thread count. Call before the first
     * run; composes with setCheckpointPolicy.
     */
    void resumeFrom(ckpt::CheckpointLedger ledger);

    /**
     * Append checkpoint bookkeeping to @p out (all in the masked
     * `ckpt.*` namespace — how often a run was interrupted is host
     * history, not physics): ckpt.writes, ckpt.restored_cells,
     * ckpt.restored_shards, a ckpt.resumed flag gauge, and
     * ckpt.last_write_age_ms. No-op when checkpointing is off.
     */
    void checkpointMetricsInto(obs::MetricSet &out) const;

  private:
    struct CellRun;   ///< in-flight ordered-merge state of one cell
    struct CellGroup; ///< cells whose shards may share a simulator
    struct ShardSource; ///< a simulator's claims, as lifetimes

    /** Group @p runs, then run workers until every group is drained. */
    void runGroups(const std::vector<std::unique_ptr<CellRun>> &runs);
    /** One worker: claim and run shards group by group. */
    void runShards(TrialWorkspace &workspace);

    /**
     * Run one prepared invocation (restore / schedule / drain /
     * checkpoint); throws ckpt::InterruptedError after persisting a
     * final checkpoint when an interrupt was requested.
     */
    void executeInvocation(std::vector<std::unique_ptr<CellRun>> &runs);
    void applyRestoredCell(CellRun &run, const ckpt::CellLedger &cell,
                           std::size_t invocation, std::size_t index);
    std::string describeInvocation(
        const std::vector<std::unique_ptr<CellRun>> &runs) const;
    ckpt::CellLedger snapshotCell(CellRun &run);
    ckpt::InvocationLedger snapshotActive(bool complete);
    void writeLedgerLocked(const ckpt::InvocationLedger &active);
    void maybeWriteCheckpoint();

    EngineOptions options_; ///< threads resolved to at least 1
    /**
     * One trial workspace per worker index, warm across every shard,
     * cell and invocation: decoders borrow all scratch from it, so
     * steady-state decoding performs no heap allocation.
     */
    std::vector<TrialWorkspace> workspaces_;
    obs::MetricSet totals_;
    /** Groups of the running invocation; stable while workers run. */
    std::vector<std::unique_ptr<CellGroup>> groups_;
    std::atomic<std::uint64_t> tasks_{0}; ///< sched.pool.tasks
    /** Lifetime simulators run, and the shards they ran as lanes. @{ */
    std::atomic<std::uint64_t> lifetimeGroups_{0};
    std::atomic<std::uint64_t> lifetimeLanes_{0};
    /** @} */

    /** Checkpoint state (inert unless a policy/ledger is installed). @{ */
    ckpt::CheckpointPolicy ckpt_{};
    bool checkpointEnabled_ = false;
    ckpt::CheckpointLedger restored_{};
    bool hasRestored_ = false;
    std::vector<ckpt::InvocationLedger> doneInvocations_;
    std::size_t invocationIndex_ = 0;
    std::vector<CellRun *> activeRuns_; ///< stable while workers run
    std::string activeConfig_;
    std::mutex ckptWriteMutex_;
    std::atomic<std::size_t> ckptSinceWrite_{0};
    std::atomic<std::int64_t> lastWriteNs_{0}; ///< steady-clock ns
    std::atomic<std::uint64_t> ckptWrites_{0};
    std::size_t restoredCells_ = 0;
    std::size_t restoredShards_ = 0;
    bool resumed_ = false;
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_ENGINE_SWEEP_HH
