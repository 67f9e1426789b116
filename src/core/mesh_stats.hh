/**
 * @file
 * Telemetry of one SFQ mesh decode. Lives apart from the decoder so the
 * generic Decoder interface can expose mesh telemetry (per decode and
 * per batch lane) without depending on the mesh implementation — the
 * streaming latency model and the Monte Carlo harness consume these
 * through the virtual Decoder::meshStats() hook.
 */

#ifndef NISQPP_CORE_MESH_STATS_HH
#define NISQPP_CORE_MESH_STATS_HH

#include <cstdint>

#include "core/mesh_config.hh"

namespace nisqpp {

namespace obs {
class MetricSet;
}

/** Telemetry from one mesh decode (one lane of a batched decode). */
struct MeshDecodeStats
{
    int cycles = 0;            ///< total mesh cycles to completion
    int pairings = 0;          ///< hot-latch clears (chain endpoints)
    int resets = 0;            ///< global resets fired
    int remainingHot = 0;      ///< unresolved syndromes at exit
    bool quiesced = false;     ///< exited via no-progress window
    bool timedOut = false;     ///< exited via hard cycle cap

    /** Wall-clock nanoseconds at the mesh clock, kMeshCyclePeriodPs. */
    double
    nanoseconds() const
    {
        return cycles * kMeshCyclePeriodPs * 1e-3;
    }

    bool operator==(const MeshDecodeStats &o) const = default;
};

/**
 * Work counters summed over mesh decodes. Every `decoder.mesh.*`
 * counter is a function of MeshDecodeStats, so a decoder's running
 * totals and a tally of one lane's meshStats() are the same sums —
 * which is what lets lifetimes share a mesh and still report exact
 * per-lifetime counters.
 */
struct MeshWorkCounters
{
    std::uint64_t decodes = 0;
    std::uint64_t cycles = 0;
    std::uint64_t pairings = 0;
    std::uint64_t resets = 0;
    std::uint64_t capped = 0;
    std::uint64_t quiesced = 0;

    void
    add(const MeshDecodeStats &s)
    {
        ++decodes;
        cycles += static_cast<std::uint64_t>(s.cycles);
        pairings += static_cast<std::uint64_t>(s.pairings);
        resets += static_cast<std::uint64_t>(s.resets);
        capped += s.timedOut ? 1 : 0;
        quiesced += s.quiesced ? 1 : 0;
    }

    /**
     * Emit as decoder.mesh.decodes/cycles/pairings/resets/
     * cycles_capped/quiesced; nothing before the first decode.
     */
    void exportTo(obs::MetricSet &out) const;
};

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_STATS_HH
