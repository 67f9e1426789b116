#include "faults/fault_plan.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"

namespace nisqpp {
namespace faults {

namespace {

void
requireRate(double value, const char *name)
{
    require(value >= 0.0 && value <= 1.0,
            std::string("FaultSpec.") + name + " must lie in [0, 1]");
}

/** SplitMix64 finalizer — mixes (seed, round) into one stream seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t round)
{
    std::uint64_t z = seed ^ (round + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
FaultSpec::validate() const
{
    requireRate(dropRate, "dropRate");
    requireRate(corruptRate, "corruptRate");
    requireRate(duplicateRate, "duplicateRate");
    requireRate(delayRate, "delayRate");
    requireRate(stallRate, "stallRate");
    requireRate(decodeFailRate, "decodeFailRate");
    require(delayCycles >= 1, "FaultSpec.delayCycles must be >= 1");
    require(stallFactor >= 1.0, "FaultSpec.stallFactor must be >= 1");
}

void
RecoveryPolicy::validate() const
{
    require(maxRetransmits >= 0,
            "RecoveryPolicy.maxRetransmits must be >= 0");
    require(retransmitNs >= 0.0,
            "RecoveryPolicy.retransmitNs must be >= 0");
    require(deadlineNs >= 0.0, "RecoveryPolicy.deadlineNs must be >= 0");
    require(mergeNs >= 0.0, "RecoveryPolicy.mergeNs must be >= 0");
}

FaultPlan::FaultPlan(const FaultSpec &spec, std::uint32_t ancillaCount)
    : spec_(spec), ancillaCount_(ancillaCount)
{
    spec_.validate();
    require(ancillaCount > 0, "FaultPlan needs a non-empty syndrome");
}

RoundFaults
FaultPlan::eventFor(std::uint64_t round) const
{
    // A fresh generator per round keeps the plan random-access: shards
    // can evaluate any round without replaying the ones before it. The
    // draw order below is part of the determinism contract — changing
    // it changes every golden that pins a faulty run.
    Rng rng(mixSeed(spec_.seed, round));
    RoundFaults f;

    f.dropped = spec_.dropRate > 0.0 && rng.bernoulli(spec_.dropRate);
    const bool corrupt =
        spec_.corruptRate > 0.0 && rng.bernoulli(spec_.corruptRate);
    if (corrupt && !f.dropped) {
        f.corruptBits =
            1 + static_cast<int>(rng.uniformInt(kMaxCorruptBits));
        for (int i = 0; i < f.corruptBits; ++i)
            f.corruptAncilla[static_cast<std::size_t>(i)] =
                static_cast<std::uint32_t>(rng.uniformInt(ancillaCount_));
    }
    f.duplicated =
        spec_.duplicateRate > 0.0 && rng.bernoulli(spec_.duplicateRate);
    if (spec_.delayRate > 0.0 && rng.bernoulli(spec_.delayRate))
        f.delayCycles = spec_.delayCycles;
    if (spec_.stallRate > 0.0 && rng.bernoulli(spec_.stallRate))
        f.stallFactor = spec_.stallFactor;
    f.decodeFailed =
        spec_.decodeFailRate > 0.0 && rng.bernoulli(spec_.decodeFailRate);

    // Retransmit attempts see the same lossy channel as the original
    // delivery: each re-request independently fails with the combined
    // drop+corrupt probability, capped so recovery is always bounded.
    if (f.transportFault()) {
        const double loss =
            std::min(0.9, spec_.dropRate + spec_.corruptRate);
        while (f.retransmitsNeeded < kRetryCap &&
               rng.bernoulli(loss))
            ++f.retransmitsNeeded;
    }
    return f;
}

} // namespace faults
} // namespace nisqpp
