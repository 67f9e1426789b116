/**
 * @file
 * Randomized fault-plan torture harness for the streaming pipeline:
 * the executable proof that fault injection plus every recovery policy
 * combination preserves the pipeline's core invariants.
 *
 *   stream_torture [--plans N] [--seed S]
 *
 * Each plan draws a random operating point (distance, cycle time,
 * horizon, decoder — including the SFQ mesh and the tiered decoder
 * under a decode deadline) from a seeded generator. Most plans draw a
 * fault mix and recovery policy combo; a quarter instead run the
 * windowed half of the consumer fault-free (w in {2, 3, 4}, q = p),
 * since faults x windows is unsupported. Each plan runs through
 * runStream twice, asserting:
 *
 *   1. completion — the run returns (a deadlock would hang the
 *      harness into the ctest timeout) with every round produced and,
 *      on windowed plans, every window committed;
 *   2. conservation (fault-active plans) — every produced round is
 *      accounted for exactly once: rounds == decoded + carried + lost
 *      + shed + merged, and dedupRounds == duplicates injected; a
 *      fault-free plan leaves the whole fault ledger at zero;
 *   3. monotone virtual clock — no completion time ran backwards, and
 *      the drain time is non-negative;
 *   4. bounded queue — the reported queue depth (the run's peak and
 *      every trajectory sample) never exceeds kStreamQueueCapacity,
 *      and a run that overflowed reached that capacity;
 *   5. determinism — the second run's full result fingerprint
 *      (counters and exact double bit patterns) is byte-identical.
 *
 * A final cross-check runs the fault_sweep scenario at --threads 1 and
 * --threads 4 and requires byte-identical CSV output, pinning the
 * thread-count invariance of the whole scenario fold. Exit 0 = all
 * plans survived; any violation prints the offending plan's parameters
 * and exits 1.
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "core/mesh_config.hh"
#include "decoders/decoder.hh"
#include "engine/scenario.hh"
#include "faults/fault_plan.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"
#include "surface/lattice.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " [--plans N] [--seed S]\n";
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &what)
{
    std::cerr << "stream_torture: FAIL: " << what << "\n";
    std::exit(1);
}

/** Strict whole-token unsigned parse (no atoi partial-parse traps). */
std::uint64_t
unsignedValue(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fail(flag + ": expected an unsigned integer, got '" + text +
             "'");
    return static_cast<std::uint64_t>(v);
}

/** One randomized operating point: everything runStream consumes. */
struct Plan
{
    int distance = 3;
    std::string decoder; ///< family name, or "tiered"
    nisqpp::StreamConfig config;
};

/** Draw a random fault spec + recovery policy combo from @p rng. */
Plan
drawPlan(nisqpp::Rng &rng)
{
    using nisqpp::faults::RecoveryPolicy;
    using nisqpp::faults::ShedMode;

    Plan plan;
    plan.distance = rng.bernoulli(0.5) ? 3 : 5;

    const char *decoders[] = {"union_find", "greedy", "mwpm", "sfq_mesh",
                              "tiered"};
    plan.decoder = decoders[rng.uniformInt(5)];

    nisqpp::StreamConfig &config = plan.config;
    config.physicalRate = 0.02 + 0.06 * rng.uniform();
    config.syndromeCycleNs = rng.bernoulli(0.5) ? 400.0 : 1000.0;
    config.rounds = 400 + rng.uniformInt(401);
    config.seed = rng.next();
    config.latency =
        plan.decoder == "tiered"
            ? nisqpp::StreamLatencyModel::tiered("union_find",
                                                 plan.distance)
            : nisqpp::StreamLatencyModel::forFamily(plan.decoder,
                                                    plan.distance);

    if (rng.bernoulli(0.25)) {
        const std::size_t w = 2 + rng.uniformInt(3);
        config.windowRounds = w;
        config.measurementFlipRate = config.physicalRate;
        config.rounds -= config.rounds % w;
        return plan;
    }

    nisqpp::faults::FaultSpec &spec = config.faults;
    spec.dropRate = 0.25 * rng.uniform();
    spec.corruptRate = 0.25 * rng.uniform();
    spec.duplicateRate = 0.2 * rng.uniform();
    spec.delayRate = 0.25 * rng.uniform();
    spec.delayCycles = 1 + rng.uniformInt(8);
    spec.stallRate = 0.25 * rng.uniform();
    spec.stallFactor = 1.0 + 7.0 * rng.uniform();
    spec.decodeFailRate = 0.1 * rng.uniform();
    spec.seed = rng.next();

    RecoveryPolicy &policy = config.recovery;
    policy.parityRetransmit = rng.bernoulli(0.5);
    policy.maxRetransmits = 1 + rng.uniformInt(4);
    policy.retransmitNs = 50.0 + 200.0 * rng.uniform();
    policy.carryForward = rng.bernoulli(0.5);
    // The deadline policy only bites on the tiered decoder (it commits
    // the provisional mesh answer), but must be harmless on any.
    if (rng.bernoulli(0.5))
        policy.deadlineNs = 300.0 + 1200.0 * rng.uniform();
    if (rng.bernoulli(0.5)) {
        policy.shedThreshold = 4 + rng.uniformInt(29);
        policy.shedMode = rng.bernoulli(0.5) ? ShedMode::DropOldest
                                             : ShedMode::XorMerge;
        policy.mergeNs = 10.0 + 40.0 * rng.uniform();
    }
    return plan;
}

std::string
describe(const Plan &plan)
{
    const nisqpp::StreamConfig &c = plan.config;
    std::ostringstream os;
    os << "d=" << plan.distance << " decoder=" << plan.decoder
       << " rounds=" << c.rounds << " seed=" << c.seed
       << " w=" << c.windowRounds << " q=" << c.measurementFlipRate
       << " fault-seed=" << c.faults.seed
       << " drop=" << c.faults.dropRate
       << " corrupt=" << c.faults.corruptRate
       << " dup=" << c.faults.duplicateRate
       << " delay=" << c.faults.delayRate
       << " stall=" << c.faults.stallRate
       << " fail=" << c.faults.decodeFailRate
       << " retransmit=" << c.recovery.parityRetransmit
       << " carry=" << c.recovery.carryForward
       << " deadline=" << c.recovery.deadlineNs
       << " shed=" << c.recovery.shedThreshold;
    return os.str();
}

/** Every fault-ledger counter, space-separated. */
std::string
ledger(const nisqpp::faults::FaultCounts &fc)
{
    std::ostringstream os;
    os << fc.drops << ' ' << fc.corruptions << ' ' << fc.duplicates
       << ' ' << fc.delays << ' ' << fc.stalls << ' '
       << fc.decodeFailures << ' ' << fc.retransmits << ' '
       << fc.carriedForward << ' ' << fc.lostRounds << ' '
       << fc.corruptDecodes << ' ' << fc.deadlineCommits << ' '
       << fc.deadlineClamps << ' ' << fc.shedRounds << ' '
       << fc.mergedRounds << ' ' << fc.dedupRounds << ' '
       << fc.decodedRounds;
    return os.str();
}

/** Exact (bit-level) textual fingerprint of a streaming result. */
std::string
fingerprint(const nisqpp::StreamingResult &r)
{
    char buf[128];
    std::ostringstream os;
    auto hexDouble = [&](double v) {
        std::snprintf(buf, sizeof buf, "%a", v);
        os << buf << '\n';
    };
    os << r.rounds << '\n' << r.windows << '\n' << r.failures << '\n';
    hexDouble(r.logicalErrorRate);
    hexDouble(r.serviceNs.mean());
    hexDouble(r.sojournNs.mean());
    hexDouble(r.servicePercentiles.p99);
    hexDouble(r.drainNs);
    hexDouble(r.fEmpirical);
    os << r.maxQueueDepth << '\n'
       << r.maxBacklogRounds << '\n'
       << r.overflowRounds << '\n'
       << r.escalations << '\n'
       << r.repairs << '\n'
       << ledger(r.faults) << '\n';
    return os.str();
}

nisqpp::StreamingResult
runPlan(const Plan &plan)
{
    // Fresh lattice + decoder per run: determinism must hold from
    // construction, not from reused warm state.
    nisqpp::SurfaceLattice lattice(plan.distance);
    nisqpp::StreamConfig config = plan.config;
    config.lattice = &lattice;
    std::unique_ptr<nisqpp::Decoder> decoder;
    if (plan.decoder == "tiered")
        decoder = nisqpp::tieredDecoderFactory(
            nisqpp::MeshConfig::finalDesign(), "union_find",
            0.9)(lattice, nisqpp::ErrorType::Z);
    else
        decoder = nisqpp::decoderFamilies()
                      [nisqpp::decoderFamilyIndex(plan.decoder)]
                          .factory(lattice, nisqpp::ErrorType::Z);
    return nisqpp::runStream(config, *decoder);
}

void
checkInvariants(const Plan &plan, const nisqpp::StreamingResult &r)
{
    const nisqpp::StreamConfig &c = plan.config;
    if (r.rounds != c.rounds ||
        (c.windowRounds > 0 && r.windows != c.rounds / c.windowRounds))
        fail("run did not complete (" + std::to_string(r.rounds) +
             " rounds, " + std::to_string(r.windows) +
             " windows): " + describe(plan));
    if (!r.clockMonotone)
        fail("virtual clock ran backwards: " + describe(plan));
    if (!(r.drainNs >= 0.0))
        fail("negative drain time: " + describe(plan));
    const std::size_t cap = nisqpp::kStreamQueueCapacity;
    if (r.maxQueueDepth > cap)
        fail("queue depth " + std::to_string(r.maxQueueDepth) +
             " above capacity: " + describe(plan));
    if (r.overflowRounds > 0 && r.maxQueueDepth != cap)
        fail("overflow without a full queue (depth " +
             std::to_string(r.maxQueueDepth) + "): " + describe(plan));
    for (const nisqpp::BacklogSample &s : r.trajectory)
        if (s.queueDepth > cap)
            fail("trajectory depth " + std::to_string(s.queueDepth) +
                 " above capacity at round " + std::to_string(s.round) +
                 ": " + describe(plan));
    const nisqpp::faults::FaultCounts &fc = r.faults;
    if (!c.faultsActive()) {
        if (ledger(fc) != ledger({}))
            fail("fault-free run filled the fault ledger: " +
                 describe(plan));
        return;
    }
    const std::uint64_t accounted = fc.decodedRounds +
                                    fc.carriedForward + fc.lostRounds +
                                    fc.shedRounds + fc.mergedRounds;
    if (accounted != static_cast<std::uint64_t>(r.rounds))
        fail("round conservation violated (" +
             std::to_string(accounted) + " accounted of " +
             std::to_string(r.rounds) + "): " + describe(plan));
    if (fc.dedupRounds != fc.duplicates)
        fail("duplicate ledger mismatch (dedup=" +
             std::to_string(fc.dedupRounds) +
             " injected=" + std::to_string(fc.duplicates) +
             "): " + describe(plan));
}

/** fault_sweep CSV at a given thread count (tiny trial scale). */
std::string
scenarioCsv(int threads)
{
    nisqpp::RunOptions options;
    options.format = nisqpp::OutputFormat::Csv;
    options.trialsScale = 0.05;
    options.seedSet = true;
    options.seed = 0x57a6eULL;
    options.threads = threads;
    std::ostringstream os;
    if (nisqpp::runScenario("fault_sweep", options, os) != 0)
        fail("fault_sweep scenario run failed at --threads " +
             std::to_string(threads));
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t plans = 25;
    std::uint64_t seed = 0x70a7eULL;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const std::string value = argv[++i];
        if (arg == "--plans") {
            plans = unsignedValue(arg, value);
            if (plans < 1 || plans > 100000)
                fail("--plans: expected 1..100000, got '" + value +
                     "'");
        } else if (arg == "--seed") {
            seed = unsignedValue(arg, value);
        } else {
            usage(argv[0]);
        }
    }

    nisqpp::Rng rng(seed);
    for (std::uint64_t i = 0; i < plans; ++i) {
        const Plan plan = drawPlan(rng);
        const nisqpp::StreamingResult first = runPlan(plan);
        checkInvariants(plan, first);
        const nisqpp::StreamingResult second = runPlan(plan);
        if (fingerprint(first) != fingerprint(second))
            fail("replay diverged: " + describe(plan));
        std::cout << "stream_torture: plan " << (i + 1) << "/" << plans
                  << " ok (" << describe(plan) << ")\n";
    }

    const std::string one = scenarioCsv(1);
    const std::string four = scenarioCsv(4);
    if (one != four)
        fail("fault_sweep CSV differs between --threads 1 and 4");
    std::cout << "stream_torture: fault_sweep thread-invariance ok\n";
    std::cout << "stream_torture: PASS (" << plans << " plans)\n";
    return 0;
}
