/**
 * @file
 * Fault-injected streaming scenario: graceful degradation measured.
 * Every policy cell replays the *same* seeded fault plan and noise
 * stream at each fault rate, so differences between rows are pure
 * recovery policy: unprotected transport vs parity re-request vs
 * last-frame carry-forward, a tiered decoder racing a per-round
 * decode deadline, and backlog-triggered load shedding (drop-oldest /
 * XOR-merge) against an unshed reference, all against the fault-free
 * baselines. PL, latency and the full stream.fault.* ledger are
 * golden-pinned; the round-conservation invariant is printed per row.
 */

#include "engine/scenarios.hh"

#include <string>
#include <vector>

#include "engine/scenario.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"

namespace nisqpp {
namespace scenarios {

namespace {

/** Row labels of one run: a recovery policy at one fault rate. */
struct FaultCell
{
    std::string policy;
    std::string decoder; ///< family name, or "tiered" for the deadline tier
    double rate = 0.0;   ///< headline fault rate (0 = fault-free)
};

/** Escalation backend and confidence threshold of the deadline cells. */
constexpr const char *kExactFamily = "union_find";
constexpr double kDeadlineThreshold = 0.9;
/** Default per-round decode budget of the deadline policy (virtual ns). */
constexpr double kDefaultDeadlineNs = 600.0;
/** Backlog threshold of the shedding policies (rounds). */
constexpr std::uint64_t kShedThreshold = 16;

/** The scenario's fault mix at headline rate r (0 disables all). */
faults::FaultSpec
specAtRate(double r)
{
    faults::FaultSpec spec;
    spec.dropRate = r;
    spec.corruptRate = r;
    spec.delayRate = r;
    spec.stallRate = r;
    spec.duplicateRate = r / 2.0;
    spec.decodeFailRate = r / 4.0;
    return spec;
}

} // namespace

void
faultSweep(ScenarioContext &ctx)
{
    ctx.note("=== fault_sweep: transport faults, decode deadlines and "
             "graceful degradation ===");
    ctx.note("(d = 5, dephasing p = 5%, 400 ns cycle; every policy row "
             "replays the same seeded fault plan and noise stream at "
             "each rate, so row differences are pure recovery policy; "
             "shed policies run on MWPM, whose f > 1 backlog actually "
             "crosses the threshold, against an unshed MWPM "
             "reference)\n");

    const int distance = 5;
    const std::size_t rounds =
        ctx.scaled({2000, 2000, 1u << 30}).maxTrials;
    const std::uint64_t streamSeed = ctx.seed(0xfa117ULL);
    const double deadlineNs = ctx.deadlineNs() > 0.0
                                  ? ctx.deadlineNs()
                                  : kDefaultDeadlineNs;

    // --fault-* / NISQPP_STREAM_FAULTS pin a single operating point;
    // the default grid sweeps the headline rate.
    std::vector<double> rates{0.01, 0.05, 0.2};
    const faults::FaultSpec *pinned = ctx.faultOverride();
    if (pinned)
        rates = {-1.0}; // sentinel: one pinned point

    SurfaceLattice lattice(distance);

    StreamConfig base;
    base.physicalRate = 0.05;
    base.syndromeCycleNs = 400.0;
    base.rounds = rounds;
    base.seed = streamSeed;
    base.lattice = &lattice;

    std::vector<FaultCell> cells;
    std::vector<StreamJob> jobs;
    auto addCell = [&](const std::string &policy,
                       const std::string &decoder, double rate,
                       const faults::FaultSpec &spec,
                       const faults::RecoveryPolicy &recovery) {
        cells.push_back({policy, decoder, rate});
        StreamJob job;
        const bool tiered = decoder == "tiered";
        job.factory =
            tiered ? tieredDecoderFactory(MeshConfig::finalDesign(),
                                          kExactFamily,
                                          kDeadlineThreshold)
                   : decoderFamilies()[decoderFamilyIndex(decoder)]
                         .factory;
        job.config = base;
        job.config.latency =
            tiered ? StreamLatencyModel::tiered(kExactFamily, distance)
                   : StreamLatencyModel::forFamily(decoder, distance);
        job.config.faults = spec;
        job.config.recovery = recovery;
        jobs.push_back(std::move(job));
    };

    const faults::RecoveryPolicy none;
    // Fault-free baselines, one per decoder the policies run on.
    addCell("baseline", "union_find", 0.0, specAtRate(0.0), none);
    addCell("baseline", "tiered", 0.0, specAtRate(0.0), none);
    addCell("baseline", "mwpm", 0.0, specAtRate(0.0), none);

    for (double rate : rates) {
        const faults::FaultSpec spec =
            pinned ? *pinned : specAtRate(rate);
        const double shownRate = pinned ? -1.0 : rate;

        addCell("unprotected", "union_find", shownRate, spec, none);

        faults::RecoveryPolicy retransmit;
        retransmit.parityRetransmit = true;
        retransmit.maxRetransmits = 3;
        addCell("retransmit", "union_find", shownRate, spec,
                retransmit);

        faults::RecoveryPolicy carry;
        carry.carryForward = true;
        addCell("carry_forward", "union_find", shownRate, spec, carry);

        faults::RecoveryPolicy deadline;
        deadline.deadlineNs = deadlineNs;
        addCell("deadline", "tiered", shownRate, spec, deadline);

        faults::RecoveryPolicy shedDrop;
        shedDrop.shedThreshold = kShedThreshold;
        shedDrop.shedMode = faults::ShedMode::DropOldest;
        addCell("shed_drop", "mwpm", shownRate, spec, shedDrop);

        faults::RecoveryPolicy shedMerge;
        shedMerge.shedThreshold = kShedThreshold;
        shedMerge.shedMode = faults::ShedMode::XorMerge;
        addCell("shed_merge", "mwpm", shownRate, spec, shedMerge);

        addCell("unshed", "mwpm", shownRate, spec, none);
    }

    const std::vector<StreamingResult> results =
        runStreamJobs(ctx, jobs);

    auto rateLabel = [&](double rate) {
        return rate < 0.0 ? std::string("pinned")
                          : TablePrinter::num(rate, 3);
    };

    TablePrinter env({"key", "value"});
    env.addRow({"rounds per cell", std::to_string(rounds)});
    env.addRow({"deadline (ns)", TablePrinter::num(deadlineNs, 4)});
    env.addRow({"shed threshold (rounds)",
                std::to_string(kShedThreshold)});
    ctx.table("fault_env", env);

    TablePrinter table({"policy", "decoder", "rate", "PL", "failures",
                        "svc p99", "sojourn mean (us)", "max backlog",
                        "drain (us)", "conserved"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const FaultCell &cell = cells[i];
        const StreamingResult &r = results[i];
        const faults::FaultCounts &fc = r.faults;
        // rounds == decoded + carried + lost + shed + merged; a
        // fault-free run never fills the ledger, so it conserves by
        // construction (decodedRounds stays zero there).
        const std::uint64_t accounted =
            fc.decodedRounds + fc.carriedForward + fc.lostRounds +
            fc.shedRounds + fc.mergedRounds;
        const bool conserved =
            !jobs[i].config.faultsActive() ||
            (accounted == static_cast<std::uint64_t>(r.rounds) &&
             r.clockMonotone);
        table.addRow({cell.policy, cell.decoder, rateLabel(cell.rate),
                      TablePrinter::num(r.logicalErrorRate, 3),
                      std::to_string(r.failures),
                      TablePrinter::num(r.servicePercentiles.p99, 4),
                      TablePrinter::num(r.sojournNs.mean() / 1e3, 4),
                      std::to_string(r.maxBacklogRounds),
                      TablePrinter::num(r.drainNs / 1e3, 4),
                      conserved ? "ok" : "VIOLATED"});
    }
    ctx.table("fault_sweep", table);

    TablePrinter ledger({"policy", "rate", "drops", "corrupt", "dup",
                         "delay", "stall", "fail", "retrans", "carried",
                         "lost", "corrupt_dec", "ddl_commit",
                         "ddl_clamp", "shed", "merged", "dedup",
                         "decoded"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const FaultCell &cell = cells[i];
        const faults::FaultCounts &fc = results[i].faults;
        ledger.addRow({cell.policy + "/" + cell.decoder,
                       rateLabel(cell.rate), std::to_string(fc.drops),
                       std::to_string(fc.corruptions),
                       std::to_string(fc.duplicates),
                       std::to_string(fc.delays),
                       std::to_string(fc.stalls),
                       std::to_string(fc.decodeFailures),
                       std::to_string(fc.retransmits),
                       std::to_string(fc.carriedForward),
                       std::to_string(fc.lostRounds),
                       std::to_string(fc.corruptDecodes),
                       std::to_string(fc.deadlineCommits),
                       std::to_string(fc.deadlineClamps),
                       std::to_string(fc.shedRounds),
                       std::to_string(fc.mergedRounds),
                       std::to_string(fc.dedupRounds),
                       std::to_string(fc.decodedRounds)});
    }
    ctx.table("fault_ledger", ledger);

    ctx.note("\nretransmit recovers transport losses at a bounded "
             "virtual-ns cost; carry-forward trades accuracy for "
             "availability on unrecoverable rounds; the deadline "
             "policy commits the provisional mesh answer when the "
             "escalated exact tier would blow the budget; shedding "
             "bounds MWPM's otherwise unbounded backlog at the "
             "threshold.");
}

} // namespace scenarios
} // namespace nisqpp
