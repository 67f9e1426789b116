/**
 * @file
 * Deterministic fault injection for the streaming decode pipeline.
 *
 * NISQ+'s decoder sits inside a real-time control loop between 4K SFQ
 * hardware and room-temperature software. That loop has failure modes
 * the happy-path simulation ignores: the syndrome transport can drop,
 * corrupt, duplicate, or delay a round; the consumer can stall or
 * transiently fail a decode. A FaultPlan is a seeded, pure function
 * from round index to the faults that strike it, so a faulty run is
 * exactly reproducible from (spec, round) at any thread count — the
 * faults are replayed on the stream's virtual clock, never the host's.
 *
 * RecoveryPolicy describes what runStream does about them: parity-
 * checked transport with bounded re-request paid in virtual ns,
 * last-frame carry-forward for unrecoverable rounds, a per-round
 * decode deadline that commits the tiered decoder's provisional mesh
 * answer instead of blocking on the exact tier, and load shedding
 * (drop-oldest or XOR-merge) when backlog crosses a threshold.
 * FaultCounts is the deterministic ledger behind the stream.fault.*
 * metrics and the round-conservation invariant:
 *   rounds == decoded + carriedForward + lostRounds + shed + merged.
 */

#ifndef NISQPP_FAULTS_FAULT_PLAN_HH
#define NISQPP_FAULTS_FAULT_PLAN_HH

#include <array>
#include <cstdint>

namespace nisqpp {
namespace faults {

/** Per-channel fault probabilities and shape parameters (all seeded). */
struct FaultSpec
{
    double dropRate = 0.0;      ///< round lost in transport
    double corruptRate = 0.0;   ///< 1-3 ancilla bits flipped in transit
    double duplicateRate = 0.0; ///< round delivered twice
    double delayRate = 0.0;     ///< round arrives delayCycles late
    int delayCycles = 3;        ///< transport delay, in syndrome cycles
    double stallRate = 0.0;     ///< decoder service time inflated
    double stallFactor = 4.0;   ///< multiplier applied on a stall
    double decodeFailRate = 0.0; ///< decode runs but result is discarded
    std::uint64_t seed = 0x0f1a7u; ///< fault stream seed (own stream)

    /** True when any fault channel can fire. */
    bool any() const
    {
        return dropRate > 0.0 || corruptRate > 0.0 ||
               duplicateRate > 0.0 || delayRate > 0.0 ||
               stallRate > 0.0 || decodeFailRate > 0.0;
    }

    /** Panics on out-of-range rates or non-positive shape params. */
    void validate() const;
};

/** Maximum ancilla bits flipped by one corruption event. */
inline constexpr int kMaxCorruptBits = 3;

/** Retransmit attempts sampled per round (cap on the loss geometric). */
inline constexpr int kRetryCap = 6;

/** The faults striking one round, fully determined by (spec, round). */
struct RoundFaults
{
    bool dropped = false;
    int corruptBits = 0; ///< 0 = clean; else 1..kMaxCorruptBits
    std::array<std::uint32_t, kMaxCorruptBits> corruptAncilla{};
    bool duplicated = false;
    int delayCycles = 0;
    /**
     * Transport attempts that also fail if the consumer re-requests
     * this round (parity recovery): attempt i of a re-request sequence
     * succeeds iff i > retransmitsNeeded. Capped at kRetryCap.
     */
    int retransmitsNeeded = 0;
    double stallFactor = 1.0; ///< 1.0 = no stall
    bool decodeFailed = false;

    bool transportFault() const { return dropped || corruptBits > 0; }
    bool anyFault() const
    {
        return transportFault() || duplicated || delayCycles > 0 ||
               stallFactor != 1.0 || decodeFailed;
    }
};

/**
 * Seeded pure mapping round -> RoundFaults. eventFor(k) derives a
 * fresh generator from (spec.seed, k) and draws the channels in a
 * fixed order, so the plan is random-access (no per-round state to
 * thread through shards) and identical at any thread count.
 */
class FaultPlan
{
  public:
    /** @param ancillaCount syndrome width, for corrupt-bit targets. */
    FaultPlan(const FaultSpec &spec, std::uint32_t ancillaCount);

    const FaultSpec &spec() const { return spec_; }

    /** Faults striking round @p round; pure in (spec, round). */
    RoundFaults eventFor(std::uint64_t round) const;

  private:
    FaultSpec spec_;
    std::uint32_t ancillaCount_;
};

/** What runStream sheds when backlog crosses the policy threshold. */
enum class ShedMode
{
    DropOldest, ///< skip the round's decode entirely
    XorMerge    ///< fold the round into the next decode (XOR surcharge)
};

/** Graceful-degradation knobs; all costs are virtual nanoseconds. */
struct RecoveryPolicy
{
    /** Re-request dropped/corrupted rounds detected by parity. */
    bool parityRetransmit = false;
    int maxRetransmits = 2;      ///< bounded re-request budget per round
    double retransmitNs = 120.0; ///< linear backoff: attempt i costs i*this

    /** Decode the last clean round again when a round is unrecoverable. */
    bool carryForward = false;

    /**
     * Per-round decode budget. When an escalated tiered decode misses
     * it, the provisional mesh answer is committed (Pauli-frame repair
     * is skipped) and the round's service time is clamped to the
     * deadline. 0 = no deadline.
     */
    double deadlineNs = 0.0;

    /** Backlog (rounds) at which shedding starts. 0 = never shed. */
    std::uint64_t shedThreshold = 0;
    ShedMode shedMode = ShedMode::DropOldest;
    double mergeNs = 20.0; ///< XOR-merge surcharge per merged round

    /** True when any recovery/degradation mechanism is enabled. */
    bool active() const
    {
        return parityRetransmit || carryForward || deadlineNs > 0.0 ||
               shedThreshold > 0;
    }

    /** Panics on negative costs/budgets. */
    void validate() const;
};

/** Deterministic ledger of fault events and recovery outcomes. */
struct FaultCounts
{
    // Injected events (what the plan threw at the pipeline).
    std::uint64_t drops = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t delays = 0;
    std::uint64_t stalls = 0;
    std::uint64_t decodeFailures = 0;

    // Recovery outcomes (what the policy did about them).
    std::uint64_t retransmits = 0;     ///< successful re-request attempts
    std::uint64_t carriedForward = 0;  ///< rounds decoded from last frame
    std::uint64_t lostRounds = 0;      ///< unrecoverable, no carry-forward
    std::uint64_t corruptDecodes = 0;  ///< corrupted syndrome decoded as-is
    std::uint64_t deadlineCommits = 0; ///< provisional committed at deadline
    std::uint64_t deadlineClamps = 0;  ///< service clamped, commit unchanged
    std::uint64_t shedRounds = 0;      ///< dropped-oldest under backlog
    std::uint64_t mergedRounds = 0;    ///< XOR-merged under backlog
    std::uint64_t dedupRounds = 0;     ///< duplicate deliveries discarded
    std::uint64_t decodedRounds = 0;   ///< rounds that ran a real decode

    bool anyEvent() const
    {
        return drops || corruptions || duplicates || delays || stalls ||
               decodeFailures || shedRounds || mergedRounds ||
               dedupRounds;
    }
};

} // namespace faults
} // namespace nisqpp

#endif // NISQPP_FAULTS_FAULT_PLAN_HH
