#include "engine/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/simd.hh"
#include "decoders/workspace.hh"
#include "obs/trace.hh"
#include "surface/lattice.hh"

namespace nisqpp {

std::vector<double>
SweepConfig::logSpaced(double lo, double hi, int count)
{
    require(lo > 0 && hi > lo && count >= 2,
            "logSpaced: bad range");
    std::vector<double> out;
    out.reserve(count);
    const double step = (std::log(hi) - std::log(lo)) / (count - 1);
    for (int i = 0; i < count; ++i)
        out.push_back(std::exp(std::log(lo) + step * i));
    return out;
}

void
CellSpec::validate() const
{
    require(lattice && factory,
            "Engine: cell needs a lattice and a decoder factory");
    require(batchLanes <= kMaxBatchLanes,
            "Engine: batchLanes exceeds kMaxBatchLanes");
    require(windowRounds == 0 || !lifetimeMode,
            "LifetimeSimulator: windowed decoding and lifetime mode are "
            "mutually exclusive (use the streaming pipeline for "
            "persistent windowed runs)");
    // Single-round protocols never call flipMeasurements: running a
    // noisy-readout model without a window would silently simulate
    // q = 0 while reporting a q > 0 configuration.
    require(windowRounds > 0 || noise.q == 0.0,
            "LifetimeSimulator: measurement noise (q > 0) requires a "
            "decode window (setMeasurementWindow)");
}

namespace {

/** Fixed trial budget and seed of one shard of a cell. */
struct Shard
{
    std::size_t trials;
    std::uint64_t seed;
};

/**
 * Split a cell's maxTrials budget into shardTrials-sized shards, each
 * with its own child stream off the cell seed. Depends only on (rule,
 * shardTrials, seed) — never on the thread count.
 */
std::vector<Shard>
planShards(const StopRule &rule, std::size_t shardTrials,
           std::uint64_t cellSeed)
{
    std::vector<Shard> shards;
    Rng cellRng(cellSeed);
    for (std::size_t done = 0; done < rule.maxTrials;
         done += shardTrials) {
        Shard shard;
        shard.trials = std::min(shardTrials, rule.maxTrials - done);
        Rng child = cellRng.split();
        shard.seed = child.next();
        shards.push_back(shard);
    }
    return shards;
}

/**
 * Whether cells @p a and @p b may run as lanes of one simulator: the
 * same lattice, decoders and protocol, differing at most in physical
 * rate and seed (in a sweep: the cells of one distance).
 */
bool
sharesSimulator(const CellSpec &a, const CellSpec &b)
{
    return a.lattice == b.lattice && a.factory == b.factory &&
           a.noise.kind == b.noise.kind && a.noise.eta == b.noise.eta &&
           a.noise.q == b.noise.q && a.windowRounds == b.windowRounds &&
           a.lifetimeMode == b.lifetimeMode &&
           a.batchLanes == b.batchLanes;
}

/**
 * Run @p worker(0) on the calling thread and worker(1..n-1) on helper
 * threads, and return once all of them have; an exception a helper
 * threw is rethrown here.
 */
template <class Worker>
void
runWorkers(std::size_t n, const Worker &worker)
{
    std::vector<std::exception_ptr> errors(n);
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(n);
        for (std::size_t i = 1; i < n; ++i)
            helpers.emplace_back([&worker, &errors, i] {
                try {
                    worker(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        if (n > 0)
            worker(0);
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace

/**
 * Ordered-merge state of one in-flight cell. Shards complete in any
 * order; the holder of the mutex advances the merge frontier over the
 * contiguous prefix of finished shards, checking the stop rule after
 * each merge. Once the rule is satisfied at shard k the stop index is
 * published so not-yet-claimed shards past k are never run — they can
 * never affect the result, which is always the ordered prefix [0, k].
 *
 * Shards are claimed in index order through nextShard by the workers
 * running the cell's group (see CellGroup), so an early-stopped cell
 * never builds decoders for the rest of its trial budget.
 */
struct Engine::CellRun
{
    CellSpec spec;
    std::vector<Shard> shards;
    std::vector<std::unique_ptr<MonteCarloResult>> pending;
    MonteCarloResult acc;
    std::size_t frontier = 0; ///< first shard not yet merged
    std::size_t stop = 0;     ///< shards >= stop are never merged
    std::atomic<std::size_t> stopHint{0};
    std::size_t nextShard = 0; ///< next index to claim (group mutex)
    std::mutex mutex;

    /** End of the claimable shards: the plan, or the stop index. */
    std::size_t
    claimLimit() const
    {
        return std::min(shards.size(),
                        stopHint.load(std::memory_order_acquire));
    }

    void onShardDone(std::size_t index, MonteCarloResult result)
    {
        std::lock_guard<std::mutex> lock(mutex);
        pending[index] =
            std::make_unique<MonteCarloResult>(std::move(result));
        while (frontier < stop && pending[frontier]) {
            acc.merge(*pending[frontier]);
            pending[frontier].reset();
            ++frontier;
            if (acc.trials >= spec.rule.minTrials &&
                acc.failures >= spec.rule.targetFailures) {
                stop = frontier;
                stopHint.store(frontier, std::memory_order_release);
                break;
            }
        }
    }
};

/**
 * Cells whose shards may run as lifetimes of one simulator
 * (sharesSimulator). Workers claim unstarted shards across them — cells
 * in descending physical rate, the slowest lifetimes first, so a
 * drained group's stragglers are short; each cell's shards in index
 * order.
 */
struct Engine::CellGroup
{
    std::vector<CellRun *> cells;
    std::mutex mutex;       ///< guards cursor and the cells' nextShard
    std::size_t cursor = 0; ///< cells before it have nothing to claim

    /** Claim the next shard into @p out; false once drained. */
    bool
    claim(std::pair<CellRun *, std::size_t> &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!advance())
            return false;
        CellRun &run = *cells[cursor];
        out = {&run, run.nextShard++};
        return true;
    }

    /** Shards still to claim; call before the workers start. */
    std::size_t
    unclaimed() const
    {
        std::size_t n = 0;
        for (const CellRun *run : cells)
            n += run->claimLimit() - std::min(run->claimLimit(),
                                              run->nextShard);
        return n;
    }

  private:
    /**
     * Skip cells with nothing left to claim; a stop index only ever
     * shrinks a cell's claimable range, so skipped cells stay done.
     */
    bool
    advance()
    {
        while (cursor < cells.size() &&
               cells[cursor]->nextShard >= cells[cursor]->claimLimit())
            ++cursor;
        return cursor < cells.size();
    }
};

/**
 * One simulator's view of its group: claims shards, hands them to the
 * simulator as fixed-length lifetimes and routes each finished shard
 * into its cell's ordered merge with its deterministic work counters.
 * A simulator that runs lifetimes as lanes keeps claiming until the
 * group is drained; any other runs the one shard claimed first on
 * fresh decoders.
 */
struct Engine::ShardSource final : LifetimeSource
{
    Engine &engine;
    CellGroup &group;
    /** The simulator's decoders and whether its lifetimes share them. @{ */
    const Decoder *zDecoder = nullptr;
    const Decoder *xDecoder = nullptr;
    bool shared = false;
    /** @} */
    /**
     * Claimed shards and their noise models, by tag; a deque, so the
     * models lanes point at stay put as claims grow. @{
     */
    std::vector<std::pair<CellRun *, std::size_t>> claims;
    std::deque<NoiseModel> models;
    /** @} */
    std::size_t handed = 0; ///< claims handed to the simulator

    ShardSource(Engine &e, CellGroup &g) : engine(e), group(g) {}

    /**
     * Claim the group's next shard and build its noise model; false
     * once drained. Once a checkpointed run sees an interrupt, workers
     * stop claiming and return (gated on the policy so stray flags
     * never affect plain runs).
     */
    bool
    claimShard()
    {
        if (engine.checkpointEnabled_ && ckpt::interruptRequested())
            return false;
        std::pair<CellRun *, std::size_t> next;
        if (!group.claim(next))
            return false;
        const CellSpec &spec = next.first->spec;
        claims.push_back(next);
        models.push_back(
            NoiseModel::fromSpec(spec.noise, spec.physicalRate));
        return true;
    }

    bool
    claim(LifetimeLane &lane) override
    {
        if (handed == claims.size() && !(shared && claimShard()))
            return false;
        const auto [run, index] = claims[handed];
        const Shard &shard = run->shards[index];
        lane.model = &models[handed];
        lane.seed = shard.seed;
        lane.rule.minTrials = lane.rule.maxTrials = shard.trials;
        lane.rule.targetFailures = ~std::size_t{0};
        lane.tag = handed++;
        return true;
    }

    void
    finish(std::size_t tag, MonteCarloResult result) override
    {
        // Attach the shard's deterministic work counters to its result:
        // they ride through the ordered prefix merge with it, so shards
        // discarded past the stop index drop their counters too and
        // the aggregate stays byte-identical at any thread count.
        // Fresh decoders' exported totals are exactly the shard's work;
        // lifetimes that shared a lane decoder already carry their own
        // tally.
        result.metrics.add("engine.shards");
        result.metrics.add("engine.trials", result.trials);
        result.metrics.add("engine.failures", result.failures);
        if (!shared) {
            zDecoder->exportMetrics(result.metrics);
            if (xDecoder)
                xDecoder->exportMetrics(result.metrics);
        }
        const auto [run, index] = claims[tag];
        run->onShardDone(index, std::move(result));
        engine.maybeWriteCheckpoint();
    }
};

Engine::Engine(EngineOptions options) : options_(options)
{
    if (options_.threads < 0)
        fatal("Engine: negative thread count");
    if (options_.threads == 0)
        options_.threads = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    require(options_.shardTrials > 0,
            "Engine: shardTrials must be positive");
    workspaces_.resize(static_cast<std::size_t>(options_.threads));
}

Engine::~Engine() = default;

int
Engine::threads() const
{
    return options_.threads;
}

void
Engine::runShards(TrialWorkspace &workspace)
{
    for (const auto &group : groups_) {
        while (true) {
            // Claim first: a worker that finds the group drained
            // builds nothing and moves on, and the first shard's model
            // says whether the group's noise needs an X decoder.
            ShardSource source(*this, *group);
            if (!source.claimShard())
                break;
            obs::TraceSpan span(obs::Stage::Shard);
            const CellSpec &spec = group->cells.front()->spec;
            const auto z_dec = (*spec.factory)(*spec.lattice, ErrorType::Z);
            std::unique_ptr<Decoder> x_dec;
            if (source.models.front().producesX())
                x_dec = (*spec.factory)(*spec.lattice, ErrorType::X);
            LifetimeSimulator sim(*spec.lattice, *z_dec, x_dec.get(),
                                  &workspace);
            sim.setLifetimeMode(spec.lifetimeMode);
            sim.setBatchLanes(spec.batchLanes);
            sim.setMeasurementWindow(spec.windowRounds);
            source.zDecoder = z_dec.get();
            source.xDecoder = x_dec.get();
            source.shared = sim.lifetimeLanes() > 1;
            sim.runLifetimes(source);
            tasks_.fetch_add(1, std::memory_order_relaxed);
            if (spec.lifetimeMode) {
                lifetimeGroups_.fetch_add(1, std::memory_order_relaxed);
                lifetimeLanes_.fetch_add(source.claims.size(),
                                         std::memory_order_relaxed);
            }
        }
    }
}

void
Engine::runGroups(const std::vector<std::unique_ptr<CellRun>> &runs)
{
    groups_.clear();
    for (const auto &run : runs) {
        if (groups_.empty() ||
            !sharesSimulator(groups_.back()->cells.front()->spec,
                             run->spec))
            groups_.push_back(std::make_unique<CellGroup>());
        groups_.back()->cells.push_back(run.get());
    }
    // Slowest shards first, in cells and in groups: largest lattices,
    // then highest rates, so the workers share the longest shards and
    // the short ones fill in at the end.
    const auto slower = [](const CellRun *a, const CellRun *b) {
        const int da = a->spec.lattice->distance();
        const int db = b->spec.lattice->distance();
        return da != db ? da > db
                        : a->spec.physicalRate > b->spec.physicalRate;
    };
    for (const auto &group : groups_)
        std::stable_sort(group->cells.begin(), group->cells.end(), slower);
    std::stable_sort(groups_.begin(), groups_.end(),
                     [&slower](const auto &a, const auto &b) {
                         return slower(a->cells.front(), b->cells.front());
                     });
    // No more workers than shards to claim (a restored cell starts at
    // its frontier; a restored-stopped cell needs nothing).
    std::size_t unclaimed = 0;
    for (const auto &group : groups_)
        unclaimed += group->unclaimed();
    runWorkers(std::min(unclaimed, workspaces_.size()),
               [this](std::size_t worker) {
                   runShards(workspaces_[worker]);
               });
}

void
Engine::runtimeMetricsInto(obs::MetricSet &out) const
{
    out.maxGauge("sched.pool.threads",
                 static_cast<std::uint64_t>(options_.threads));
    out.add("sched.pool.tasks", tasks_.load(std::memory_order_relaxed));
    out.add("sched.lifetime.groups",
            lifetimeGroups_.load(std::memory_order_relaxed));
    out.add("sched.lifetime.lanes",
            lifetimeLanes_.load(std::memory_order_relaxed));
    const simd::Width width = simd::activeWidth();
    out.maxGauge("sched.simd.width_bits",
                 width == simd::Width::V512   ? 512u
                 : width == simd::Width::V256 ? 256u
                                              : 64u);
    out.maxGauge("sched.simd.native", simd::nativeEngine(width) ? 1u : 0u);
}

void
Engine::setCheckpointPolicy(const ckpt::CheckpointPolicy &policy)
{
    require(invocationIndex_ == 0,
            "Engine: set the checkpoint policy before running");
    require(!policy.enabled() || policy.intervalShards >= 1,
            "Engine: checkpoint interval must be >= 1 shard");
    ckpt_ = policy;
    checkpointEnabled_ = policy.enabled();
}

void
Engine::resumeFrom(ckpt::CheckpointLedger ledger)
{
    require(invocationIndex_ == 0,
            "Engine: resume before running");
    for (std::size_t i = 0; i + 1 < ledger.invocations.size(); ++i)
        if (!ledger.invocations[i].complete)
            throw ckpt::CheckpointError(
                "checkpoint malformed: invocation " + std::to_string(i) +
                " is incomplete but not last");
    restored_ = std::move(ledger);
    hasRestored_ = true;
}

namespace {

/**
 * Canonical one-line description of a cell: everything the result
 * depends on (and nothing it doesn't — thread count and batch lanes
 * are result-invariant by the engine's determinism contract, so a run
 * may legitimately resume with different values). Doubles are printed
 * as IEEE-754 bit patterns so the fingerprint is exact.
 */
std::string
describeCell(const CellSpec &spec, std::size_t shardCount)
{
    std::ostringstream os;
    os << "d=" << spec.lattice->distance()
       << " p=" << ckpt::hexBits(spec.physicalRate)
       << " noise=" << noiseKindName(spec.noise.kind)
       << " eta=" << ckpt::hexBits(spec.noise.eta)
       << " q=" << ckpt::hexBits(spec.noise.q)
       << " window=" << spec.windowRounds
       // Always 0: syndromes are extracted by parity. The field stays
       // so ledgers written while it was settable still resume.
       << " circuits=0"
       << " lifetime=" << (spec.lifetimeMode ? 1 : 0)
       << " rule=" << spec.rule.minTrials << '/' << spec.rule.maxTrials
       << '/' << spec.rule.targetFailures << " seed=" << spec.seed
       << " shards=" << shardCount;
    return os.str();
}

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
Engine::describeInvocation(
    const std::vector<std::unique_ptr<CellRun>> &runs) const
{
    std::ostringstream os;
    os << "shardTrials=" << options_.shardTrials
       << " cells=" << runs.size();
    for (const auto &run : runs)
        os << " | " << describeCell(run->spec, run->shards.size());
    return os.str();
}

ckpt::CellLedger
Engine::snapshotCell(CellRun &run)
{
    std::lock_guard<std::mutex> lock(run.mutex);
    ckpt::CellLedger cell;
    cell.frontier = run.frontier;
    // stop < shards.size() is only ever published with frontier ==
    // stop (the rule fires at merge time), so frontier >= stop is
    // exactly "nothing left to schedule".
    cell.stopped = run.frontier >= run.stop;
    cell.partial = run.acc;
    return cell;
}

ckpt::InvocationLedger
Engine::snapshotActive(bool complete)
{
    ckpt::InvocationLedger inv;
    inv.configText = activeConfig_;
    inv.complete = complete;
    inv.cells.reserve(activeRuns_.size());
    for (CellRun *run : activeRuns_)
        inv.cells.push_back(snapshotCell(*run));
    return inv;
}

void
Engine::writeLedgerLocked(const ckpt::InvocationLedger &active)
{
    ckpt::CheckpointLedger ledger;
    ledger.scope = ckpt_.scope;
    ledger.invocations = doneInvocations_;
    ledger.invocations.push_back(active);
    ckpt::writeCheckpoint(ckpt_.path, ledger);
    ckptWrites_.fetch_add(1, std::memory_order_relaxed);
    lastWriteNs_.store(steadyNowNs(), std::memory_order_relaxed);
}

void
Engine::maybeWriteCheckpoint()
{
    if (!checkpointEnabled_)
        return;
    const std::size_t n =
        ckptSinceWrite_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n < ckpt_.intervalShards)
        return;
    // One writer at a time; a contended worker just keeps computing —
    // the writer's snapshot already covers its shard.
    std::unique_lock<std::mutex> lock(ckptWriteMutex_,
                                      std::try_to_lock);
    if (!lock.owns_lock())
        return;
    ckptSinceWrite_.store(0, std::memory_order_relaxed);
    try {
        writeLedgerLocked(snapshotActive(false));
    } catch (const ckpt::CheckpointError &err) {
        // A failed periodic write must not kill hours of simulation;
        // the end-of-invocation write rethrows if the disk is truly
        // gone.
        warn(std::string("periodic checkpoint write failed: ") +
             err.what());
    }
}

void
Engine::executeInvocation(std::vector<std::unique_ptr<CellRun>> &runs)
{
    const std::size_t inv = invocationIndex_++;
    const bool tracked = checkpointEnabled_ || hasRestored_;
    if (!tracked) {
        runGroups(runs);
        return;
    }

    activeConfig_ = describeInvocation(runs);
    if (hasRestored_ && inv < restored_.invocations.size()) {
        const ckpt::InvocationLedger &rinv = restored_.invocations[inv];
        if (rinv.configText != activeConfig_)
            throw ckpt::CheckpointError(
                "checkpoint config mismatch in invocation " +
                std::to_string(inv) +
                " — the checkpoint was written by a different "
                "configuration (grid, rates, seed, or shardTrials)\n"
                "  checkpoint: " + rinv.configText + "\n"
                "  this run:   " + activeConfig_);
        if (rinv.cells.size() != runs.size())
            throw ckpt::CheckpointError(
                "checkpoint cell count mismatch in invocation " +
                std::to_string(inv) + ": checkpoint has " +
                std::to_string(rinv.cells.size()) +
                ", this run plans " + std::to_string(runs.size()));
        for (std::size_t j = 0; j < runs.size(); ++j)
            applyRestoredCell(*runs[j], rinv.cells[j], inv, j);
        resumed_ = true;
        if (rinv.complete) {
            // Nothing to recompute and nothing new to persist.
            doneInvocations_.push_back(rinv);
            return;
        }
    }

    activeRuns_.clear();
    activeRuns_.reserve(runs.size());
    for (auto &run : runs)
        activeRuns_.push_back(run.get());
    runGroups(runs);

    const bool interrupted =
        checkpointEnabled_ && ckpt::interruptRequested();
    if (checkpointEnabled_) {
        std::lock_guard<std::mutex> lock(ckptWriteMutex_);
        ckpt::InvocationLedger closing = snapshotActive(!interrupted);
        writeLedgerLocked(closing);
        ckptSinceWrite_.store(0, std::memory_order_relaxed);
        activeRuns_.clear();
        doneInvocations_.push_back(std::move(closing));
    } else {
        activeRuns_.clear();
    }
    if (interrupted)
        throw ckpt::InterruptedError(ckpt_.path);
}

void
Engine::applyRestoredCell(CellRun &run, const ckpt::CellLedger &cell,
                          std::size_t invocation, std::size_t index)
{
    if (cell.frontier > run.shards.size())
        throw ckpt::CheckpointError(
            "checkpoint frontier " + std::to_string(cell.frontier) +
            " exceeds the " + std::to_string(run.shards.size()) +
            "-shard plan of cell " + std::to_string(index) +
            " in invocation " + std::to_string(invocation));
    run.acc = cell.partial;
    run.frontier = cell.frontier;
    run.stop = cell.stopped ? cell.frontier : run.shards.size();
    run.stopHint.store(run.stop, std::memory_order_release);
    run.nextShard = cell.frontier;
    restoredCells_ += 1;
    restoredShards_ += cell.frontier;
}

void
Engine::checkpointMetricsInto(obs::MetricSet &out) const
{
    if (!checkpointEnabled_ && !resumed_)
        return;
    out.add("ckpt.writes",
            ckptWrites_.load(std::memory_order_relaxed));
    out.add("ckpt.restored_cells", restoredCells_);
    out.add("ckpt.restored_shards", restoredShards_);
    out.maxGauge("ckpt.resumed", resumed_ ? 1 : 0);
    const std::int64_t last =
        lastWriteNs_.load(std::memory_order_relaxed);
    if (last != 0)
        out.maxGauge("ckpt.last_write_age_ms",
                     static_cast<std::uint64_t>(
                         (steadyNowNs() - last) / 1000000));
}

std::vector<MonteCarloResult>
Engine::runCells(const std::vector<CellSpec> &specs)
{
    // All of them first: a bad cell must fail before any shard runs.
    for (const CellSpec &spec : specs)
        spec.validate();
    std::vector<std::unique_ptr<CellRun>> runs;
    runs.reserve(specs.size());
    for (const CellSpec &spec : specs) {
        CellRun &run = *runs.emplace_back(std::make_unique<CellRun>());
        run.spec = spec;
        if (run.spec.batchLanes == 0)
            run.spec.batchLanes = options_.batchLanes;
        run.shards = planShards(spec.rule, options_.shardTrials, spec.seed);
        run.pending.resize(run.shards.size());
        run.stop = run.shards.size();
        run.stopHint.store(run.stop, std::memory_order_release);
    }
    executeInvocation(runs);

    // Fold in spec order, which the caller fixes, so engine totals
    // inherit the per-cell determinism.
    std::vector<MonteCarloResult> results;
    results.reserve(runs.size());
    for (const auto &run : runs) {
        MonteCarloResult &result = results.emplace_back(std::move(run->acc));
        result.metrics.add("engine.cells");
        result.finalize();
        totals_.merge(result.metrics);
    }
    return results;
}

MonteCarloResult
Engine::runCell(const CellSpec &spec)
{
    return std::move(runCells({spec}).front());
}

void
Engine::runJobs(std::vector<std::function<void()>> jobs)
{
    for (const auto &job : jobs)
        require(static_cast<bool>(job), "runJobs: empty job");
    std::atomic<std::size_t> next{0};
    runWorkers(std::min(jobs.size(), workspaces_.size()),
               [&](std::size_t) {
                   for (std::size_t i = next.fetch_add(1); i < jobs.size();
                        i = next.fetch_add(1)) {
                       jobs[i]();
                       tasks_.fetch_add(1, std::memory_order_relaxed);
                   }
               });
}

SweepResult
Engine::runSweep(const SweepConfig &config, const DecoderFactory &factory)
{
    require(!config.physicalRates.empty(),
            "runSweep: no physical rates given");

    // Lattices are shared read-only across every shard of a distance.
    std::deque<SurfaceLattice> lattices;
    for (int d : config.distances)
        lattices.emplace_back(d);

    // Cell seeds are drawn in fixed grid order from the master stream,
    // mirroring the legacy serial sweep's per-cell split() sequence.
    Rng master(config.seed);
    const std::size_t cols = config.physicalRates.size();
    std::vector<CellSpec> specs;
    specs.reserve(config.distances.size() * cols);
    for (std::size_t di = 0; di < config.distances.size(); ++di) {
        for (double p : config.physicalRates) {
            CellSpec &spec = specs.emplace_back();
            spec.lattice = &lattices[di];
            spec.physicalRate = p;
            spec.noise = config.noise;
            spec.windowRounds = config.windowRounds;
            spec.lifetimeMode = config.lifetimeMode;
            spec.rule = config.stopRule;
            Rng child = master.split();
            spec.seed = child.next();
            spec.factory = &factory;
        }
    }
    std::vector<MonteCarloResult> cells = runCells(specs);

    SweepResult result;
    for (std::size_t di = 0; di < config.distances.size(); ++di) {
        ErrorRateCurve curve;
        curve.distance = config.distances[di];
        std::vector<MonteCarloResult> row;
        for (std::size_t pi = 0; pi < cols; ++pi) {
            MonteCarloResult &mc = cells[di * cols + pi];
            curve.p.push_back(config.physicalRates[pi]);
            curve.pl.push_back(mc.logicalErrorRate);
            row.push_back(std::move(mc));
        }
        result.curves.push_back(std::move(curve));
        result.cells.push_back(std::move(row));
    }
    return result;
}

} // namespace nisqpp
