/**
 * @file
 * Stage-resolved benchmark driver. One process runs one workload:
 *
 *   nisqpp_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
 *                [--trace-out FILE]
 *   nisqpp_bench --list
 *
 * Run shape: build the workload's lattices, decoders and engine
 * kSetupRuns times (the median is setup_s), run one warm-up
 * repetition, then fixed-budget repetitions until --seconds elapse.
 * Every repetition of the fixed budget must reproduce the same
 * deterministic fingerprint, and at kDefaultSeed that fingerprint must
 * equal the pinned one. A small cross-path run (batch vs scalar lanes,
 * or 1 vs N threads) must match the workload's own path byte for byte.
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics
 * of untraced repetitions. With --trace 1 it carries per-layer
 * metrics: obs stage aggregates of traced repetitions, plus a replay
 * of pre-generated inputs through each layer's public functions
 * (ErrorModel::sample, extractSyndromeInto, Decoder::decode /
 * decodeBatch / decodeWindow, classifyResidual) under spans the
 * benchmark records itself. Layers are timed from outside only.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "decoders/workspace.hh"
#include "engine/sweep.hh"
#include "noise/noise_model.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"
#include "surface/logical.hh"
#include "surface/syndrome.hh"
#include "surface/syndrome_window.hh"

using namespace nisqpp;

namespace {

using Clock = std::chrono::steady_clock;

/** Seed whose fingerprints are pinned in the workload table. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Independent set-ups per run; setup_s is their median. */
constexpr int kSetupRuns = 51;
/** Timed repetitions per run, at least (their median is reported). */
constexpr int kMinReps = 3;
/** Decode calls the replay times, at least (p99 keeps 10 beyond it). */
constexpr std::size_t kMinCalls = 1000;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (sorted copy). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Shortest exact decimal of a double (fingerprints compare text). */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

// ------------------------------------------------------------------ spans

/** One benchmark span: name, start, end and the span that caused it. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
};

/**
 * The benchmark's own spans, recorded around its calls into each layer
 * and kept in memory; written once as a chrome trace when the run ends.
 */
class SpanLog
{
  public:
    int
    open(std::string name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), nowNs(), 0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close()
    {
        spans_[stack_.back()].endNs = nowNs();
        stack_.pop_back();
    }

    double
    durationNs(int id) const
    {
        return static_cast<double>(spans_[id].endNs - spans_[id].startNs);
    }

    /** Duration minus the time covered by the span's children. */
    double
    selfNs(int id) const
    {
        double self = durationNs(id);
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent == id)
                self -= durationNs(static_cast<int>(i));
        return self;
    }

    /** Chrome trace JSON (loads in chrome://tracing and Perfetto). */
    bool
    writeChrome(std::ostream &os) const
    {
        const std::uint64_t origin =
            spans_.empty() ? 0 : spans_.front().startNs;
        os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const int id = static_cast<int>(i);
            os << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
               << ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
               << ",\"ts\":" << exact((s.startNs - origin) / 1e3)
               << ",\"dur\":" << exact(durationNs(id) / 1e3)
               << ",\"args\":{\"parent\":"
               << jsonString(s.parent < 0 ? "" : spans_[s.parent].name)
               << ",\"self_us\":" << exact(selfNs(id) / 1e3) << "}}";
        }
        os << "\n]}\n";
        os.flush();
        return static_cast<bool>(os);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_; ///< open spans, innermost last
};

SpanLog g_spans;

/** RAII span on the global log; duration readable after close. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name)
        : id_(g_spans.open(std::move(name)))
    {}
    ~ScopedSpan()
    {
        if (open_)
            g_spans.close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close now and return the duration. */
    double
    stopNs()
    {
        if (open_) {
            g_spans.close();
            open_ = false;
        }
        return g_spans.durationNs(id_);
    }

  private:
    int id_;
    bool open_ = true;
};

// -------------------------------------------------------------- workloads

enum class Kind
{
    Engine, ///< Engine::runSweep over a (distance x rate) grid
    Stream  ///< runStream as one Engine::runJobs job
};

/**
 * One benchmark workload. Budgets are per repetition and sized to
 * about one second on a 4-vCPU AVX-512 host, so a run measures several
 * repetitions and reports their median. Why each workload exists is
 * recorded in BENCHMARK.json and bench/perf/README.md.
 */
struct Workload
{
    const char *name;
    Kind kind;
    const char *decoder; ///< "union_find", "sfq_mesh" or "tiered"
    std::vector<int> distances;
    std::vector<double> rates;
    double q = 0.0;        ///< measurement flip rate (windowed runs)
    int windowRounds = 0;  ///< noisy rounds per window; 0 = per round
    bool lifetime = false; ///< the paper's lifetime protocol
    std::size_t batchLanes = 1;
    int threads = 1;
    std::size_t opsPerCell = 0; ///< trials per cell, or stream rounds
    bool faults = false;        ///< fault mix + recovery (streams)
    /**
     * Cross-path oracle: the same inputs through another batch-lane
     * count / thread count must give a byte-identical fingerprint.
     * Equal to the workload's own values = no oracle (rep identity,
     * invariants and the pin still apply).
     */
    std::size_t checkLanes = 1;
    int checkThreads = 1;
    /** FNV-1a of the fingerprint text at kDefaultSeed. */
    std::uint64_t pinned = 0;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table{
        {.name = "uf_batch_d9",
         .kind = Kind::Engine,
         .decoder = "union_find",
         .distances = {9},
         .rates = {0.05},
         .batchLanes = 512,
         .threads = 2,
         .opsPerCell = 655360,
         .checkLanes = 1,
         .checkThreads = 2,
         .pinned = 0x0d8ae42f3a48c1e8ULL},
        {.name = "uf_scalar_lowp_d9",
         .kind = Kind::Engine,
         .decoder = "union_find",
         .distances = {9},
         .rates = {0.01},
         .batchLanes = 1,
         .threads = 1,
         .opsPerCell = 655360,
         .checkLanes = 512,
         .checkThreads = 1,
         .pinned = 0x8d0b6b30505c6101ULL},
        {.name = "mesh_lifetime_sweep",
         .kind = Kind::Engine,
         .decoder = "sfq_mesh",
         .distances = {3, 5, 7, 9},
         .rates = SweepConfig::logSpaced(0.01, 0.12, 10),
         .lifetime = true,
         .batchLanes = 1,
         .threads = 2,
         .opsPerCell = 5120,
         .checkLanes = 1,
         .checkThreads = 1,
         .pinned = 0x59e1fd8c37e04745ULL},
        {.name = "uf_window_d7",
         .kind = Kind::Engine,
         .decoder = "union_find",
         .distances = {7},
         .rates = {0.02},
         .q = 0.02,
         .windowRounds = 7,
         .batchLanes = 1,
         .threads = 2,
         .opsPerCell = 131072,
         .checkLanes = 64,
         .checkThreads = 2,
         .pinned = 0xce7d6e7d5d6236ffULL},
        {.name = "stream_tiered_faults_d9",
         .kind = Kind::Stream,
         .decoder = "tiered",
         .distances = {9},
         .rates = {0.05},
         .batchLanes = 1,
         .threads = 1,
         .opsPerCell = 40960,
         .faults = true,
         .checkLanes = 1,
         .checkThreads = 1,
         .pinned = 0xd03fd8db34b7cce5ULL},
        {.name = "stream_uf_backlog_d9",
         .kind = Kind::Stream,
         .decoder = "union_find",
         .distances = {9},
         .rates = {0.05},
         .batchLanes = 512,
         .threads = 1,
         .opsPerCell = 393216,
         .checkLanes = 1,
         .checkThreads = 1,
         .pinned = 0x0bf6614b5b6846c6ULL},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

bool
isTiered(const Workload &w)
{
    return std::strcmp(w.decoder, "tiered") == 0;
}

DecoderFactory
factoryFor(const Workload &w)
{
    if (isTiered(w))
        return tieredDecoderFactory(MeshConfig::finalDesign(),
                                    "union_find", 0.5);
    return decoderFamilies()[decoderFamilyIndex(w.decoder)].factory;
}

// ------------------------------------------------------------------ setup

/** Where one set-up spent its time (ns). */
struct SetupSplit
{
    double latticeNs = 0.0;
    double decoderNs = 0.0;
    double poolNs = 0.0;
    double firstCallNs = 0.0;

    double
    totalNs() const
    {
        return latticeNs + decoderNs + poolNs + firstCallNs;
    }
};

/** What a workload needs before its first repetition. */
struct Rig
{
    std::vector<std::unique_ptr<SurfaceLattice>> lattices;
    std::vector<std::unique_ptr<Decoder>> decoders; ///< one per lattice
    std::unique_ptr<Engine> engine;
    TrialWorkspace ws;
};

/**
 * Build every lattice, decoder and the engine (thread pool), then make
 * one decode call per decoder through the workload's own decode entry
 * point so lazily built structures (batch engines, spacetime graphs)
 * are part of set-up rather than of the first repetition.
 */
std::unique_ptr<Rig>
buildRig(const Workload &w, SetupSplit &split)
{
    auto rig = std::make_unique<Rig>();
    const DecoderFactory factory = factoryFor(w);

    std::uint64_t t = nowNs();
    for (int d : w.distances)
        rig->lattices.push_back(std::make_unique<SurfaceLattice>(d));
    split.latticeNs = static_cast<double>(nowNs() - t);

    t = nowNs();
    for (const auto &lattice : rig->lattices)
        rig->decoders.push_back(factory(*lattice, ErrorType::Z));
    split.decoderNs = static_cast<double>(nowNs() - t);

    t = nowNs();
    EngineOptions options;
    options.threads = w.threads;
    options.batchLanes = w.batchLanes;
    rig->engine = std::make_unique<Engine>(options);
    split.poolNs = static_cast<double>(nowNs() - t);

    t = nowNs();
    for (std::size_t i = 0; i < rig->lattices.size(); ++i) {
        const SurfaceLattice &lattice = *rig->lattices[i];
        Decoder &decoder = *rig->decoders[i];
        if (w.windowRounds > 0) {
            SyndromeWindow window(lattice, ErrorType::Z,
                                  w.windowRounds + 1);
            const Syndrome quiet(lattice, ErrorType::Z);
            for (int r = 0; r <= w.windowRounds; ++r)
                window.recordRound(r, quiet);
            decoder.decodeWindow(window, rig->ws);
        } else {
            const Syndrome quiet(lattice, ErrorType::Z);
            std::vector<const Syndrome *> group(w.batchLanes, &quiet);
            if (w.batchLanes > 1)
                decoder.decodeBatch(group.data(), group.size(), rig->ws);
            else
                decoder.decode(quiet, rig->ws);
        }
    }
    split.firstCallNs = static_cast<double>(nowNs() - t);
    return rig;
}

// ------------------------------------------------------------ repetitions

/** Outcome of one fixed-budget repetition. */
struct Rep
{
    std::size_t ops = 0;
    std::string fingerprint; ///< canonical text of deterministic outputs
    std::string violation;   ///< first broken invariant; empty = none
    double wallNs = 0.0;
    /** Stream runs: host time inside runStream. */
    double streamNs = 0.0;
    obs::MetricSet counters; ///< decoder/stream work counters
    StreamingResult stream;  ///< stream runs only
    std::uint64_t tasks = 0; ///< pool tasks during the repetition
    std::uint64_t steals = 0;
};

SweepConfig
sweepConfig(const Workload &w, std::uint64_t seed, std::size_t trials)
{
    SweepConfig config;
    config.distances = w.distances;
    config.physicalRates = w.rates;
    config.noise = NoiseSpec::dephasing().withQ(w.q);
    config.windowRounds = w.windowRounds;
    config.lifetimeMode = w.lifetime;
    config.stopRule.minTrials = config.stopRule.maxTrials = trials;
    config.stopRule.targetFailures = ~std::size_t{0};
    config.seed = Rng(seed).next();
    return config;
}

/** fault_sweep's fault mix at headline rate 0.02 plus its recovery. */
void
addFaults(StreamConfig &config, std::uint64_t seed)
{
    constexpr double rate = 0.02;
    config.faults.dropRate = rate;
    config.faults.corruptRate = rate;
    config.faults.delayRate = rate;
    config.faults.stallRate = rate;
    config.faults.duplicateRate = rate / 2.0;
    config.faults.decodeFailRate = rate / 4.0;
    config.faults.seed = Rng(seed ^ 0xfa117ULL).next();
    config.recovery.parityRetransmit = true;
    config.recovery.maxRetransmits = 3;
    config.recovery.carryForward = true;
    config.recovery.deadlineNs = 600.0;
}

StreamConfig
streamConfig(const Workload &w, const SurfaceLattice &lattice,
             std::uint64_t seed, std::size_t rounds, std::size_t lanes)
{
    StreamConfig config;
    config.lattice = &lattice;
    config.physicalRate = w.rates.front();
    config.syndromeCycleNs = 400.0;
    config.rounds = rounds;
    config.seed = Rng(seed).next();
    config.batchLanes = lanes;
    config.latency =
        isTiered(w)
            ? StreamLatencyModel::tiered("union_find", lattice.distance())
            : StreamLatencyModel::forFamily(w.decoder, lattice.distance());
    if (w.faults)
        addFaults(config, seed);
    return config;
}

void
poolCounts(const Engine &engine, std::uint64_t &tasks,
           std::uint64_t &steals)
{
    obs::MetricSet runtime;
    engine.runtimeMetricsInto(runtime);
    tasks = runtime.value("sched.pool.tasks");
    steals = runtime.value("sched.pool.steals");
}

void
engineRep(const Workload &w, Engine &engine, std::uint64_t seed,
          std::size_t budget, Rep &rep)
{
    const DecoderFactory factory = factoryFor(w);
    const SweepResult result =
        engine.runSweep(sweepConfig(w, seed, budget), factory);
    const bool clearsSyndrome = std::strcmp(w.decoder, "union_find") == 0 &&
                                w.windowRounds == 0;
    std::ostringstream fp;
    for (std::size_t di = 0; di < w.distances.size(); ++di)
        for (std::size_t pi = 0; pi < w.rates.size(); ++pi) {
            const MonteCarloResult &cell = result.cells[di][pi];
            fp << "d=" << w.distances[di] << " p=" << exact(w.rates[pi])
               << " trials=" << cell.trials
               << " failures=" << cell.failures
               << " residual=" << cell.syndromeResidualFailures
               << " pl=" << exact(cell.logicalErrorRate);
            if (std::strcmp(w.decoder, "sfq_mesh") == 0)
                fp << " cycles_mean=" << exact(cell.cycles.mean());
            fp << '\n';
            rep.ops += cell.trials;
            rep.counters.merge(cell.metrics);
            if (rep.violation.empty() && cell.trials != budget)
                rep.violation = "cell ran " + std::to_string(cell.trials) +
                                " trials, budget " + std::to_string(budget);
            if (rep.violation.empty() && clearsSyndrome &&
                cell.syndromeResidualFailures != 0)
                rep.violation = "union-find left a residual syndrome";
        }
    rep.fingerprint = fp.str();
}

void
streamRep(const Workload &w, Engine &engine, const SurfaceLattice &lattice,
          std::uint64_t seed, std::size_t budget, std::size_t lanes,
          Rep &rep)
{
    const StreamConfig config =
        streamConfig(w, lattice, seed, budget, lanes);
    const DecoderFactory factory = factoryFor(w);
    std::vector<std::function<void()>> jobs;
    jobs.push_back([&] {
        const std::unique_ptr<Decoder> decoder =
            factory(lattice, ErrorType::Z);
        const std::uint64_t start = nowNs();
        rep.stream = runStream(config, *decoder);
        rep.streamNs = static_cast<double>(nowNs() - start);
    });
    engine.runJobs(std::move(jobs));

    const StreamingResult &r = rep.stream;
    const faults::FaultCounts &fc = r.faults;
    rep.ops = r.rounds;
    rep.counters = r.metrics;
    std::ostringstream fp;
    fp << "rounds=" << r.rounds << " windows=" << r.windows
       << " failures=" << r.failures
       << " ler=" << exact(r.logicalErrorRate)
       << " escalations=" << r.escalations << " repairs=" << r.repairs
       << " repair_flips=" << r.repairFrameFlips
       << " f=" << exact(r.fEmpirical)
       << " p50=" << exact(r.servicePercentiles.p50)
       << " p99=" << exact(r.servicePercentiles.p99) << " faults="
       << fc.drops << '/' << fc.corruptions << '/' << fc.duplicates << '/'
       << fc.delays << '/' << fc.stalls << '/' << fc.decodeFailures << '/'
       << fc.retransmits << '/' << fc.carriedForward << '/'
       << fc.lostRounds << '/' << fc.corruptDecodes << '/'
       << fc.deadlineCommits << '/' << fc.deadlineClamps << '/'
       << fc.shedRounds << '/' << fc.mergedRounds << '/'
       << fc.dedupRounds << '/' << fc.decodedRounds << '\n';
    rep.fingerprint = fp.str();

    const std::uint64_t accounted = fc.decodedRounds + fc.carriedForward +
                                    fc.lostRounds + fc.shedRounds +
                                    fc.mergedRounds;
    if (r.rounds != budget)
        rep.violation = "stream produced " + std::to_string(r.rounds) +
                        " rounds, budget " + std::to_string(budget);
    else if (!r.clockMonotone)
        rep.violation = "virtual clock ran backwards";
    else if (w.faults && accounted != r.rounds)
        rep.violation = "round conservation broken: " +
                        std::to_string(accounted) + " accounted of " +
                        std::to_string(r.rounds);
    else if (w.faults && fc.dedupRounds != fc.duplicates)
        rep.violation = "duplicate rounds not deduplicated";
    else if (!w.faults && fc.anyEvent())
        rep.violation = "fault ledger filled on a fault-free stream";
}

/** Run one repetition of @p budget per cell on @p engine. */
Rep
runRep(const Workload &w, Rig &rig, Engine &engine, std::uint64_t seed,
       std::size_t budget, std::size_t lanes)
{
    Rep rep;
    std::uint64_t tasks0 = 0, steals0 = 0;
    poolCounts(engine, tasks0, steals0);
    const std::uint64_t start = nowNs();
    if (w.kind == Kind::Engine)
        engineRep(w, engine, seed, budget, rep);
    else
        streamRep(w, engine, *rig.lattices.front(), seed, budget, lanes,
                  rep);
    rep.wallNs = static_cast<double>(nowNs() - start);
    poolCounts(engine, rep.tasks, rep.steals);
    rep.tasks -= tasks0;
    rep.steals -= steals0;
    return rep;
}

// ----------------------------------------------------------------- replay

/** Per-layer host cost of one op, measured by the replay loops. */
struct Replay
{
    double sampleNs = 0.0;
    double extractNs = 0.0;
    double decodeNs = 0.0;
    double classifyNs = 0.0;
    std::vector<double> callNs; ///< one entry per decode call
    std::size_t checked = 0;    ///< ops whose output was verified
    std::size_t mismatches = 0;
};

/** Loop @p body (one pass = @p opsPerPass ops) for >= @p seconds. */
double
timedPasses(const char *name, double seconds, std::size_t opsPerPass,
            const std::function<void()> &body)
{
    ScopedSpan span(name);
    const std::uint64_t start = nowNs();
    std::size_t ops = 0;
    do {
        body();
        ops += opsPerPass;
    } while (static_cast<double>(nowNs() - start) < seconds * 1e9);
    return span.stopNs() / static_cast<double>(ops);
}

bool
sameFlips(std::vector<int> a, std::vector<int> b)
{
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
}

/**
 * Replay independent code-capacity rounds (or windows) at the
 * workload's largest distance and middle rate through each layer.
 * Stream workloads decode lifetime-accumulated syndromes, which at a
 * fixed rate carry the same syndrome weight as these fresh ones.
 */
Replay
replayLayers(const Workload &w, Rig &rig, std::uint64_t seed,
             double seconds)
{
    ScopedSpan span("replay");
    const SurfaceLattice &lattice = *rig.lattices.back();
    Decoder &decoder = *rig.decoders.back();
    const double p = w.rates[w.rates.size() / 2];
    const NoiseModel model = NoiseModel::dephasing(p, w.q);
    Rng rng(seed ^ 0x4e91a7ULL);
    TrialWorkspace &ws = rig.ws;
    // Windows decode one at a time (no lane-packed window substrate).
    const std::size_t lanes =
        w.windowRounds > 0 ? 1 : std::max<std::size_t>(1, w.batchLanes);
    const std::size_t pool =
        ((w.windowRounds > 0 ? 1024 : 4096) + lanes - 1) / lanes * lanes;
    Replay out;

    std::vector<ErrorState> states(pool, ErrorState(lattice));
    std::vector<Syndrome> syndromes(pool, Syndrome(lattice, ErrorType::Z));
    std::vector<SyndromeWindow> windows;
    std::vector<Correction> corrections(pool);

    // Inputs: rounds are sampled then extracted; windows follow the
    // simulator's protocol (w noisy rounds + one perfect commit round).
    if (w.windowRounds > 0) {
        windows.assign(pool, SyndromeWindow(lattice, ErrorType::Z,
                                            w.windowRounds + 1));
        Syndrome measured(lattice, ErrorType::Z);
        for (std::size_t i = 0; i < pool; ++i) {
            states[i].clear();
            for (int t = 0; t < w.windowRounds; ++t) {
                model.sample(rng, states[i]);
                extractSyndromeInto(states[i], ErrorType::Z, measured);
                model.flipMeasurements(rng, measured);
                windows[i].recordRound(t, measured);
            }
            extractSyndromeInto(states[i], ErrorType::Z, measured);
            windows[i].recordRound(w.windowRounds, measured);
        }
    }

    ErrorState scratch(lattice);
    const int samplesPerOp = std::max(1, w.windowRounds);
    out.sampleNs = timedPasses("replay.sample", 0.1 * seconds, pool, [&] {
        for (std::size_t i = 0; i < pool; ++i) {
            ErrorState &state = w.windowRounds > 0 ? scratch : states[i];
            state.clear();
            for (int t = 0; t < samplesPerOp; ++t)
                model.sample(rng, state);
        }
    });

    SyndromeWindow scratchWindow(lattice, ErrorType::Z,
                                 w.windowRounds + 1);
    out.extractNs =
        timedPasses("replay.extract", 0.1 * seconds, pool, [&] {
            for (std::size_t i = 0; i < pool; ++i) {
                if (w.windowRounds == 0) {
                    extractSyndromeInto(states[i], ErrorType::Z,
                                        syndromes[i]);
                    continue;
                }
                scratchWindow.reset();
                for (int t = 0; t <= w.windowRounds; ++t) {
                    extractSyndromeInto(states[i], ErrorType::Z,
                                        syndromes[i]);
                    scratchWindow.recordRound(t, syndromes[i]);
                }
            }
        });

    // Decode-only: every call timed on its own; the op cost is the sum
    // of call times over the ops decoded.
    std::vector<const Syndrome *> ptrs(pool);
    for (std::size_t i = 0; i < pool; ++i)
        ptrs[i] = &syndromes[i];
    {
        ScopedSpan decodeSpan("replay.decode");
        const std::uint64_t start = nowNs();
        double total = 0.0;
        std::size_t ops = 0;
        while (out.callNs.size() < kMinCalls ||
               static_cast<double>(nowNs() - start) < 0.5 * seconds * 1e9) {
            for (std::size_t g = 0; g < pool; g += lanes) {
                const std::uint64_t t0 = nowNs();
                if (w.windowRounds > 0)
                    decoder.decodeWindow(windows[g], ws);
                else if (lanes > 1)
                    decoder.decodeBatch(ptrs.data() + g, lanes, ws);
                else
                    decoder.decode(syndromes[g], ws);
                const double ns = static_cast<double>(nowNs() - t0);
                out.callNs.push_back(ns);
                total += ns;
                ops += lanes;
            }
        }
        out.decodeNs = total / static_cast<double>(ops);
    }

    // Untimed verification pass: batch lanes must equal scalar decodes,
    // and decoders that promise it must clear the decoded syndrome.
    for (std::size_t g = 0; g < pool; g += lanes) {
        if (w.windowRounds > 0) {
            decoder.decodeWindow(windows[g], ws);
            corrections[g] = ws.correction;
            continue;
        }
        if (lanes > 1) {
            decoder.decodeBatch(ptrs.data() + g, lanes, ws);
            for (std::size_t l = 0; l < lanes; ++l)
                corrections[g + l] = ws.laneCorrections[l];
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            decoder.decode(syndromes[g + l], ws);
            ++out.checked;
            if (lanes == 1)
                corrections[g] = ws.correction;
            else if (!sameFlips(corrections[g + l].dataFlips,
                                ws.correction.dataFlips))
                ++out.mismatches;
        }
    }
    for (std::size_t i = 0; i < pool; ++i)
        corrections[i].applyTo(states[i], ErrorType::Z);
    std::size_t residual = 0;
    out.classifyNs =
        timedPasses("replay.classify", 0.1 * seconds, pool, [&] {
            residual = 0;
            for (std::size_t i = 0; i < pool; ++i)
                residual +=
                    classifyResidual(states[i], ErrorType::Z).syndromeNonzero;
        });
    if (w.windowRounds == 0 && decoder.correctionClearsSyndrome())
        out.mismatches += residual;
    return out;
}

// ----------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
hostJson()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);)
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    std::ostringstream os;
    os << "{\"cpu\":" << jsonString(cpu)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"simd\":" << jsonString(simd::widthName(simd::activeWidth()))
       << ",\"compiler\":" << jsonString(NISQPP_BENCH_COMPILER)
       << ",\"build_type\":" << jsonString(NISQPP_BENCH_BUILD_TYPE) << "}";
    return os.str();
}

/**
 * High-water RSS of this address space (VmHWM). getrusage's maxrss
 * would also count whatever ran in this process before exec.
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << exact(v)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

// ------------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 12.0;
    bool trace = false;
    std::string traceOut;
    bool list = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "nisqpp_bench: " << error
              << "\nusage: nisqpp_bench --workload W [--seed S] "
                 "[--seconds T] [--trace 0|1] [--trace-out FILE]\n"
                 "       nisqpp_bench --list\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list") {
            args.list = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                usage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds >= 1.0) ||
                args.seconds > 60.0)
                usage("--seconds wants a number in [1, 60]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    return args;
}

/**
 * Per-layer metrics of one traced repetition, per op. The work unit is
 * an engine shard (obs shard span) or the runStream call (timed by the
 * benchmark). Produce = sampling + extraction spans; "other" is the
 * rest of the work unit: classification or commit, fault recovery and
 * the simulator's or stream's own glue (the lifetime protocol has no
 * classify span, so these are not split).
 */
std::map<std::string, double>
tracedLayers(const Workload &w, const Rep &rep, int threads)
{
    using obs::Stage;
    auto total = [](Stage s) {
        return static_cast<double>(obs::stageTiming(s).totalNs);
    };
    const bool engine = w.kind == Kind::Engine;
    const double produce =
        engine ? total(Stage::Sample) + total(Stage::Extract)
               : total(Stage::StreamProduce);
    const double decode =
        total(engine ? Stage::Decode : Stage::StreamDecode);
    const double work = engine ? total(Stage::Shard) : rep.streamNs;
    const double ops = static_cast<double>(rep.ops);
    const double capacity = threads * rep.wallNs;
    std::map<std::string, double> m;
    m["pipeline.produce_ns"] = produce / ops;
    m["pipeline.decode_ns"] = decode / ops;
    m["pipeline.other_ns"] = (work - produce - decode) / ops;
    m["pipeline.decode_share_pct"] = work > 0 ? 100.0 * decode / work : 0;
    m["engine.busy_frac"] = work / capacity;
    m["engine.overhead_ns"] = (capacity - work) / ops;
    m["engine.tasks"] = static_cast<double>(rep.tasks);
    m["engine.steals"] = static_cast<double>(rep.steals);
    m["traced_wall_ns"] = rep.wallNs;
    return m;
}

/** Deterministic work counters of one repetition, per decode or round. */
void
counterLayers(const Rep &rep, std::vector<Metric> &out)
{
    const obs::MetricSet &c = rep.counters;
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    const std::uint64_t ufDecodes = c.value("decoder.uf.decodes");
    const StreamingResult &s = rep.stream;
    const faults::FaultCounts &fc = s.faults;
    out.push_back({"decoders.union_find.growth_rounds",
                   ratio(c.value("decoder.uf.growth_rounds"), ufDecodes),
                   "count"});
    out.push_back({"decoders.union_find.peel_flips",
                   ratio(c.value("decoder.uf.peel_flips"), ufDecodes),
                   "count"});
    out.push_back({"core.mesh.cycles_per_decode",
                   ratio(c.value("decoder.mesh.cycles"),
                         c.value("decoder.mesh.decodes")),
                   "count"});
    out.push_back({"decoders.tiered.escalation_frac",
                   ratio(s.escalations, s.rounds), "ratio"});
    out.push_back({"decoders.tiered.repair_frac",
                   ratio(s.repairs, s.rounds), "ratio"});
    out.push_back({"stream.max_queue_depth",
                   static_cast<double>(s.maxQueueDepth), "count"});
    out.push_back({"stream.max_backlog_rounds",
                   static_cast<double>(s.maxBacklogRounds), "count"});
    out.push_back({"stream.overflow_rounds",
                   static_cast<double>(s.overflowRounds), "count"});
    out.push_back({"faults.events",
                   static_cast<double>(fc.drops + fc.corruptions +
                                       fc.duplicates + fc.delays +
                                       fc.stalls + fc.decodeFailures),
                   "count"});
    out.push_back({"faults.retransmits",
                   static_cast<double>(fc.retransmits), "count"});
    out.push_back({"faults.carried_forward",
                   static_cast<double>(fc.carriedForward), "count"});
    out.push_back({"faults.deadline_commits",
                   static_cast<double>(fc.deadlineCommits), "count"});
}

int
run(const Args &args)
{
    const Workload *found = findWorkload(args.workload);
    if (!found)
        usage("unknown workload '" + args.workload + "' (try --list)");
    const Workload &w = *found;
    const double seconds = args.seconds;
    ScopedSpan runSpan("run " + std::string(w.name));

    // 1. Set-up, several times; the last rig serves the run.
    std::vector<double> setupNs, latticeNs, decoderNs, poolNs;
    std::unique_ptr<Rig> rig;
    {
        ScopedSpan span("setup");
        for (int i = 0; i < kSetupRuns; ++i) {
            rig.reset();
            SetupSplit split;
            rig = buildRig(w, split);
            setupNs.push_back(split.totalNs());
            latticeNs.push_back(split.latticeNs);
            decoderNs.push_back(split.decoderNs);
            poolNs.push_back(split.poolNs);
        }
    }
    Engine &engine = *rig->engine;

    std::size_t attempted = 0, failed = 0;
    std::string firstViolation;
    auto account = [&](std::size_t ops, const std::string &violation) {
        attempted += ops;
        if (!violation.empty()) {
            failed += ops;
            if (firstViolation.empty())
                firstViolation = violation;
        }
    };

    // 2. Warm-up repetition; its fingerprint is the reference.
    const std::size_t budget = w.opsPerCell;
    Rep warm;
    {
        ScopedSpan span("warmup");
        warm = runRep(w, *rig, engine, args.seed, budget, w.batchLanes);
    }
    const std::uint64_t fingerprint = fnv1a(warm.fingerprint);
    std::string pinViolation = warm.violation;
    if (pinViolation.empty() && args.seed == kDefaultSeed && w.pinned &&
        fingerprint != w.pinned)
        pinViolation = "fingerprint " + hex64(fingerprint) +
                       " differs from pinned " + hex64(w.pinned);

    // 3. Timed repetitions: untraced, then (trace mode) traced.
    auto checkedRep = [&](const char *name) {
        ScopedSpan span(name);
        Rep rep = runRep(w, *rig, engine, args.seed, budget, w.batchLanes);
        if (rep.violation.empty() && !pinViolation.empty())
            rep.violation = pinViolation;
        if (rep.violation.empty() && rep.fingerprint != warm.fingerprint)
            rep.violation = "repetition fingerprint differs from warm-up";
        account(rep.ops, rep.violation);
        return rep;
    };
    const double untracedSeconds = args.trace ? 0.4 * seconds : seconds;
    std::vector<double> opsPerS, untracedWall;
    const std::uint64_t measureStart = nowNs();
    while (opsPerS.size() < kMinReps ||
           static_cast<double>(nowNs() - measureStart) <
               untracedSeconds * 1e9) {
        const Rep rep = checkedRep("rep");
        opsPerS.push_back(static_cast<double>(rep.ops) / (rep.wallNs * 1e-9));
        untracedWall.push_back(rep.wallNs);
    }

    std::map<std::string, std::vector<double>> layers;
    Rep lastTraced;
    if (args.trace) {
        const std::uint64_t tracedStart = nowNs();
        do {
            obs::resetStageTimes();
            obs::setTimingCollection(true);
            Rep rep = checkedRep("traced_rep");
            obs::setTimingCollection(false);
            for (const auto &[name, value] :
                 tracedLayers(w, rep, engine.threads()))
                layers[name].push_back(value);
            lastTraced = std::move(rep);
        } while (static_cast<double>(nowNs() - tracedStart) <
                 0.2 * seconds * 1e9);
    }

    // 4. Cross-path oracle on a reduced budget.
    if (w.checkLanes != w.batchLanes || w.checkThreads != w.threads) {
        ScopedSpan span("check");
        const std::size_t small = std::max<std::size_t>(budget / 16, 1024);
        EngineOptions options;
        options.threads = w.checkThreads;
        options.batchLanes = w.checkLanes;
        Engine reference(options);
        const Rep mine =
            runRep(w, *rig, engine, args.seed, small, w.batchLanes);
        const Rep theirs =
            runRep(w, *rig, reference, args.seed, small, w.checkLanes);
        std::string violation = mine.violation.empty() ? theirs.violation
                                                       : mine.violation;
        if (violation.empty() && mine.fingerprint != theirs.fingerprint)
            violation = "lanes " + std::to_string(w.checkLanes) +
                        " / threads " + std::to_string(w.checkThreads) +
                        " disagree with the workload's own path";
        account(mine.ops + theirs.ops, violation);
    }

    // 5. Replay (trace mode).
    Replay replay;
    if (args.trace) {
        replay = replayLayers(w, *rig, args.seed, 0.3 * seconds);
        account(replay.checked,
                replay.mismatches
                    ? std::to_string(replay.mismatches) +
                          " replayed decodes failed verification"
                    : std::string());
    }
    runSpan.stopNs();

    const bool correct = failed == 0;
    std::cout << "{\"info\": {\"workload\": " << jsonString(w.name)
              << ", \"seed\": " << args.seed
              << ", \"fingerprint\": " << jsonString(hex64(fingerprint))
              << ", \"reps\": " << opsPerS.size()
              << ", \"host\": " << hostJson() << "}}\n";
    if (!firstViolation.empty())
        std::cout << "check failed: " << firstViolation << "\n";

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics.push_back({"ops_per_s", median(opsPerS), "ops/s"});
        metrics.push_back({"setup_s", median(setupNs) * 1e-9, "s"});
        metrics.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
    } else {
        const double calls = static_cast<double>(replay.callNs.size());
        metrics.push_back({"noise.sample_ns", replay.sampleNs, "ns"});
        metrics.push_back({"surface.extract_ns", replay.extractNs, "ns"});
        metrics.push_back({"surface.classify_ns", replay.classifyNs, "ns"});
        metrics.push_back(
            {"decoders.decode_only_ns", replay.decodeNs, "ns"});
        metrics.push_back({"decoders.call_p50_ns",
                           percentile(replay.callNs, 0.50), "ns"});
        metrics.push_back({"decoders.call_p99_ns",
                           percentile(replay.callNs, 0.99), "ns"});
        metrics.push_back({"decoders.calls", calls, "count"});
        for (const char *name :
             {"pipeline.produce_ns", "pipeline.decode_ns",
              "pipeline.other_ns"})
            metrics.push_back({name, median(layers[name]), "ns"});
        metrics.push_back({"pipeline.decode_share_pct",
                           median(layers["pipeline.decode_share_pct"]),
                           "%"});
        metrics.push_back({"engine.busy_frac",
                           median(layers["engine.busy_frac"]), "ratio"});
        metrics.push_back({"engine.overhead_ns",
                           median(layers["engine.overhead_ns"]), "ns"});
        metrics.push_back(
            {"engine.tasks", median(layers["engine.tasks"]), "count"});
        metrics.push_back(
            {"engine.steals", median(layers["engine.steals"]), "count"});
        counterLayers(lastTraced, metrics);
        metrics.push_back({"setup.lattice_ms", median(latticeNs) * 1e-6,
                           "ms"});
        metrics.push_back({"setup.decoder_ms", median(decoderNs) * 1e-6,
                           "ms"});
        metrics.push_back({"setup.pool_ms", median(poolNs) * 1e-6, "ms"});
        metrics.push_back(
            {"obs.overhead_pct",
             100.0 * (median(layers["traced_wall_ns"]) /
                          median(untracedWall) -
                      1.0),
             "%"});
    }

    if (!args.traceOut.empty()) {
        std::ofstream os(args.traceOut);
        if (!g_spans.writeChrome(os)) {
            std::cerr << "nisqpp_bench: cannot write " << args.traceOut
                      << "\n";
            return 1;
        }
    }
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.list) {
        for (const Workload &w : workloads())
            std::cout << w.name << "\n";
        return 0;
    }
    if (args.workload.empty())
        usage("--workload is required");
    return run(args);
}
