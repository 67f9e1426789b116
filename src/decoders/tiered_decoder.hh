/**
 * @file
 * Tiered decoder: the SFQ mesh decodes every syndrome (scalar, batch
 * lane, or spacetime window) and its answer is committed provisionally;
 * a confidence score derived from the mesh's own telemetry (cycles,
 * resets, cap/quiescence exits, unresolved hot count — see
 * core/confidence.hh) escalates low-confidence decodes to an exact
 * software backend, and when the exact decoder disagrees the
 * difference is emitted as a Pauli-frame repair. This is the paper's
 * thesis run online: the mesh buys its speed on the easy (overwhelming
 * majority of) windows, the exact decoder backstops the hard tail, and
 * the escalation rate is the price actually paid.
 *
 * The final correction a tiered decode reports is always the
 * *post-repair* one (the exact decoder's answer when escalated, the
 * mesh's otherwise), so corrections — and therefore PL aggregates —
 * remain bit-identical between scalar, batched and streamed execution
 * exactly like every other decoder; the provisional-commit-then-repair
 * sequence is replayed by the streaming pipeline from tieredStats().
 */

#ifndef NISQPP_DECODERS_TIERED_DECODER_HH
#define NISQPP_DECODERS_TIERED_DECODER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "core/confidence.hh"
#include "core/mesh_decoder.hh"
#include "decoders/decoder.hh"

namespace nisqpp {

class TieredDecoder : public Decoder
{
  public:
    /** Confidence histogram resolution: bins of 1/64. */
    static constexpr std::size_t kConfidenceBins = 64;

    /**
     * @param mesh      First-tier mesh decoder (owned).
     * @param exact     Escalation backend (owned; union-find or MWPM).
     * @param threshold Decodes with confidence < threshold escalate.
     *                  0 never escalates (pure-mesh with tiered
     *                  bookkeeping); anything > 1 always escalates.
     */
    TieredDecoder(const SurfaceLattice &lattice, ErrorType type,
                  std::unique_ptr<MeshDecoder> mesh,
                  std::unique_ptr<Decoder> exact, double threshold);

    using Decoder::decodeBatch;
    using Decoder::decodeWindowBatch;

    /**
     * The mesh decodes all @p count syndromes (scalar for a batch of
     * one, lane-packed otherwise), then each low-confidence lane is
     * escalated alone through the exact backend, which decodes
     * straight into that lane's output. Per-lane corrections and
     * telemetry are bit-identical for every batch size.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     Correction *out, TrialWorkspace &ws) override;

    /**
     * Windowed first tier: the mesh's round-majority reduction decodes
     * each window, its telemetry is scored, and low confidence
     * escalates to the exact backend's true spacetime window decode.
     */
    void decodeWindowBatch(const SyndromeWindow *const *windows,
                           std::size_t count, Correction *out,
                           TrialWorkspace &ws) override;

    /** True spacetime escalation is available iff the backend has it. */
    bool windowAware() const override { return exact_->windowAware(); }

    const MeshDecodeStats *
    meshStats(std::size_t lane = 0) const override
    {
        return mesh_->meshStats(lane);
    }

    const TieredDecodeStats *
    tieredStats(std::size_t lane = 0) const override
    {
        return lane < stats_.size() ? &stats_[lane] : nullptr;
    }

    /**
     * Emit `decoder.tiered.*` counters accumulated since construction
     * (decodes, escalations, repairs, repair flip total, the
     * 64-bin confidence histogram) plus both children's own counters.
     */
    void exportMetrics(obs::MetricSet &out) const override;

    std::string name() const override;

    double threshold() const { return threshold_; }

    /** The first-tier mesh (tests tighten its limits to force escalation). */
    MeshDecoder &mesh() { return *mesh_; }

    /** The escalation backend. */
    Decoder &exact() { return *exact_; }

  private:
    /**
     * Finish one escalation: @p out holds the exact tier's answer and
     * provisional_ the parked mesh answer; record their difference as
     * the frame repair in @p ts and count the escalation.
     */
    void repairFrom(const Correction &out, TieredDecodeStats &ts);

    /** Score + count one decode; true when it must escalate. */
    bool scoreDecode(const MeshDecodeStats &mesh, TieredDecodeStats &ts);

    std::unique_ptr<MeshDecoder> mesh_;
    std::unique_ptr<Decoder> exact_;
    double threshold_;

    /** Per-lane telemetry of the most recent decode. */
    std::vector<TieredDecodeStats> stats_{1};

    /** Provisional-mesh / exact flip scratch (reused, no alloc). @{ */
    Correction provisional_;
    std::vector<int> diffScratch_;
    /** @} */

    /** Deterministic work counters (see exportMetrics). @{ */
    std::uint64_t decodes_ = 0;
    std::uint64_t windowDecodes_ = 0;
    std::uint64_t escalations_ = 0;
    std::uint64_t repairs_ = 0;
    std::uint64_t repairFlipsTotal_ = 0;
    Histogram confidenceHist_{kConfidenceBins - 1};
    std::uint64_t confidenceBinSum_ = 0;
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_TIERED_DECODER_HH
