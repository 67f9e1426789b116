/**
 * @file
 * Common decoder interface. A decoder maps an error syndrome for one
 * error type to a correction: the set of data qubits whose corresponding
 * Pauli component should be flipped (paper Section II-C1).
 */

#ifndef NISQPP_DECODERS_DECODER_HH
#define NISQPP_DECODERS_DECODER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/confidence.hh"
#include "core/mesh_stats.hh"
#include "surface/error_state.hh"
#include "surface/lattice.hh"
#include "surface/syndrome.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {

namespace obs {
class MetricSet;
}

class TrialWorkspace;

/** A decoder's output: data-qubit flips of the decoded error type. */
struct Correction
{
    std::vector<int> dataFlips; ///< compact data indices, XOR semantics

    /** Drop the flips but keep the buffer's capacity (reuse). */
    void clear() { dataFlips.clear(); }

    /** Apply onto an error state (composition = residual computation). */
    void
    applyTo(ErrorState &state, ErrorType type) const
    {
        for (int d : dataFlips)
            state.flip(type, d);
    }
};

/**
 * Abstract decoder bound to one lattice and one error type. Decoders are
 * stateful only in reusable scratch buffers; decoding is deterministic.
 */
class Decoder
{
  public:
    Decoder(const SurfaceLattice &lattice, ErrorType type)
        : lattice_(&lattice), type_(type)
    {}

    virtual ~Decoder() = default;

    const SurfaceLattice &lattice() const { return *lattice_; }
    ErrorType type() const { return type_; }

    /**
     * Decode @p count independent syndromes into out[0..count), the
     * one round-decode entry point every decoder implements. Each
     * out[i] is overwritten (cleared first; capacity kept) with the
     * data flips for *syndromes[i]; scratch buffers are borrowed from
     * @p ws so repeated decodes allocate nothing. @p out may alias
     * ws.correction or ws.laneCorrections, so implementations never
     * touch those two fields. A scalar decode is a batch of one:
     * the mesh picks its one-lane or packed lane engine from @p count,
     * and every lane's correction and exported counter is identical
     * either way.
     */
    virtual void decodeBatch(const Syndrome *const *syndromes,
                             std::size_t count, Correction *out,
                             TrialWorkspace &ws) = 0;

    /**
     * Decode @p count independent multi-round measurement windows
     * into out[0..count): the net data flips to commit at each window
     * boundary, under the decodeBatch output contract. The default
     * reduces every window by round-majority voting and decodes the
     * votes through decodeBatch, which is correct when measurement
     * noise is rare relative to the window length. Window-aware
     * decoders (MWPM, union-find) override this with true spacetime
     * matching over the detection events and report windowAware().
     */
    virtual void decodeWindowBatch(const SyndromeWindow *const *windows,
                                   std::size_t count, Correction *out,
                                   TrialWorkspace &ws);

    /**
     * @name Non-virtual conveniences over the two entry points
     * decode() allocates a private workspace per call (tests, tools);
     * the workspace forms write ws.correction (scalar) or
     * ws.laneCorrections[0..count) (batch, grown to @p count).
     * @{
     */
    Correction decode(const Syndrome &syndrome);
    void decode(const Syndrome &syndrome, TrialWorkspace &ws);
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     TrialWorkspace &ws);
    void decodeWindow(const SyndromeWindow &window, TrialWorkspace &ws);
    void decodeWindowBatch(const SyndromeWindow *const *windows,
                           std::size_t count, TrialWorkspace &ws);
    /** @} */

    /**
     * Whether decodeWindowBatch runs true spacetime decoding rather
     * than the round-majority default.
     */
    virtual bool windowAware() const { return false; }

    /**
     * Whether applying this decoder's correction is guaranteed to
     * clear the decoded syndrome exactly (re-extracting after the
     * commit yields zero). True for the exact matchers — MWPM and
     * greedy always produce complete matchings — and for union-find,
     * whose peel drains every interior vertex by construction. False
     * by default: the mesh is approximate (cycle caps and quiescence
     * exits can strand hot modules). The benchmark driver's replay
     * counts every nonzero residual syndrome of a decoder that claims
     * this as a mismatch, so it must never be claimed loosely.
     */
    virtual bool correctionClearsSyndrome() const { return false; }

    /**
     * Mesh telemetry of lane @p lane of the most recent decode (a
     * scalar decode fills lane 0 only). Null for decoders without mesh
     * telemetry and for lanes past the last decode's batch size —
     * callers probe this instead of dynamic_casting to MeshDecoder.
     */
    virtual const MeshDecodeStats *
    meshStats(std::size_t lane = 0) const
    {
        (void)lane;
        return nullptr;
    }

    /**
     * Tiered telemetry of lane @p lane of the most recent decode:
     * confidence, escalation and frame-repair outcome. Null for
     * decoders without a tiered path and for lanes past the last
     * decode's batch size — the streaming pipeline probes this to
     * charge escalation latency and count repairs without knowing the
     * concrete decoder type.
     */
    virtual const TieredDecodeStats *
    tieredStats(std::size_t lane = 0) const
    {
        (void)lane;
        return nullptr;
    }

    virtual std::string name() const = 0;

    /**
     * Export the deterministic work counters accumulated since
     * construction into @p out under this decoder's `decoder.<kind>.*`
     * namespace (UF growth rounds and peel lengths, blossom
     * augmentations, mesh cycle/cap/quiescence counts). Counters only
     * depend on the decoded syndromes, never on the host, so exported
     * sets merge deterministically across shards. Default: no-op for
     * decoders without instrumentation.
     */
    virtual void
    exportMetrics(obs::MetricSet &out) const
    {
        (void)out;
    }

  private:
    const SurfaceLattice *lattice_;
    ErrorType type_;
    /** Majority-vote scratch of the default decodeWindowBatch. @{ */
    std::vector<Syndrome> voteScratch_;
    std::vector<const Syndrome *> votePtrs_;
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_DECODER_HH
