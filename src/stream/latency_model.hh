/**
 * @file
 * Deterministic per-round decode latency models for the streaming
 * pipeline. The SFQ mesh decoder reports its own simulated cycle count
 * per decode (Table IV), so its latency is a measurement; the software
 * baselines get the paper's Section III / Fig. 11 reference latencies
 * (MWPM ~1 us, union-find ~850 ns, neural-net ~800 ns) as a fixed cost
 * per decode. Latencies are functions of the decoder and the syndrome
 * only — never of host wall time — so streaming telemetry is
 * byte-reproducible at any thread count.
 */

#ifndef NISQPP_STREAM_LATENCY_MODEL_HH
#define NISQPP_STREAM_LATENCY_MODEL_HH

#include <string>

namespace nisqpp {

struct MeshDecodeStats;

/** Modeled decode time of one syndrome round, in nanoseconds. */
struct StreamLatencyModel
{
    /** Fixed cost per round (software pipeline overhead). */
    double baseNs = 0.0;

    /**
     * Take the latency from the mesh decoder's simulated cycle count
     * at the mesh clock (kMeshCyclePeriodPs) instead of baseNs
     * (requires a decoder exposing mesh telemetry through
     * Decoder::meshStats()).
     */
    bool meshCycles = false;

    /**
     * Extra cost charged when the round's decode escalated to the
     * exact software tier (tiered decoding): the streaming pipeline
     * adds this on top of decodeNs() for rounds whose
     * Decoder::tieredStats() reports an escalation. Zero for
     * non-tiered models.
     */
    double escalateNs = 0.0;

    /**
     * Latency of the round just decoded. @p stats is the decoder's
     * Decoder::meshStats() telemetry (null for software decoders).
     */
    double decodeNs(const MeshDecodeStats *stats) const;

    /** The SFQ mesh: measured cycles x clock period. */
    static StreamLatencyModel mesh();

    /** Fixed latency (the closed-form backlog model's assumption). */
    static StreamLatencyModel constant(double ns);

    /**
     * Preset for a decoder family name as used by the experiment
     * scenarios: "sfq_mesh", "mwpm", "union_find" or "greedy". The
     * software presets mirror DecoderProfile's Fig. 11 latencies;
     * greedy (not profiled in the paper) is modeled at 600 ns.
     */
    static StreamLatencyModel forFamily(const std::string &family,
                                        int distance);

    /**
     * Tiered preset: mesh-cycle latency for the first tier plus
     * @p exactFamily's reference latency as the escalation surcharge
     * (the escalated window pays the mesh attempt *and* the software
     * decode — the pipeline model assumes no overlap).
     */
    static StreamLatencyModel tiered(const std::string &exactFamily,
                                     int distance);
};

} // namespace nisqpp

#endif // NISQPP_STREAM_LATENCY_MODEL_HH
