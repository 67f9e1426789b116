#include "decoders/tiered_decoder.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

namespace {

/**
 * Sort a flip list and cancel duplicate entries mod 2 in place (a
 * qubit flipped twice is not flipped). Both the mesh and the software
 * decoders emit each qubit at most once in practice, but the repair
 * diff must hold under XOR semantics regardless.
 */
void
canonicalize(std::vector<int> &flips)
{
    std::sort(flips.begin(), flips.end());
    std::size_t out = 0;
    for (std::size_t i = 0; i < flips.size();) {
        std::size_t j = i;
        while (j < flips.size() && flips[j] == flips[i])
            ++j;
        if ((j - i) & 1)
            flips[out++] = flips[i];
        i = j;
    }
    flips.resize(out);
}

/** Symmetric difference of two canonicalized (sorted, unique) lists. */
void
symmetricDifference(const std::vector<int> &a, const std::vector<int> &b,
                    std::vector<int> &out)
{
    out.clear();
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(out));
}

} // namespace

TieredDecoder::TieredDecoder(const SurfaceLattice &lattice,
                             ErrorType type,
                             std::unique_ptr<MeshDecoder> mesh,
                             std::unique_ptr<Decoder> exact,
                             double threshold)
    : Decoder(lattice, type), mesh_(std::move(mesh)),
      exact_(std::move(exact)), threshold_(threshold)
{
    require(mesh_ != nullptr && exact_ != nullptr,
            "TieredDecoder: both tiers are required");
    require(&mesh_->lattice() == &lattice &&
                &exact_->lattice() == &lattice,
            "TieredDecoder: tiers must share the decoder's lattice");
    require(mesh_->type() == type && exact_->type() == type,
            "TieredDecoder: tiers must decode the same error family");
}

bool
TieredDecoder::scoreDecode(const MeshDecodeStats &mesh,
                           TieredDecodeStats &ts)
{
    ts.reset();
    const MeshConfidence conf{mesh_->quiescenceWindow()};
    ts.confidence = conf.score(mesh);
    ++decodes_;
    const auto bin = static_cast<std::size_t>(
        std::min(ts.confidence, 1.0) * (kConfidenceBins - 1));
    confidenceHist_.add(bin);
    confidenceBinSum_ += bin;
    return ts.confidence < threshold_;
}

void
TieredDecoder::repairFrom(const Correction &out, TieredDecodeStats &ts)
{
    canonicalize(provisional_.dataFlips);
    diffScratch_ = out.dataFlips;
    canonicalize(diffScratch_);
    symmetricDifference(provisional_.dataFlips, diffScratch_,
                        ts.repairFlips);
    ++escalations_;
    ts.escalated = true;
    if (!ts.repairFlips.empty()) {
        ts.repaired = true;
        ++repairs_;
        repairFlipsTotal_ += ts.repairFlips.size();
    }
}

void
TieredDecoder::decodeBatch(const Syndrome *const *syndromes,
                           std::size_t count, Correction *out,
                           TrialWorkspace &ws)
{
    if (count == 0)
        return;
    stats_.resize(count);
    mesh_->decodeBatch(syndromes, count, out, ws);
    // Escalations run one at a time after the first tier, in lane
    // order, each copying the mesh's provisional answer aside (copying
    // leaves every lane's buffer, and its capacity, with that lane) and
    // letting the exact tier decode straight into out[i], so counters
    // and corrections match a scalar tiered loop bit for bit.
    for (std::size_t i = 0; i < count; ++i) {
        if (!scoreDecode(*mesh_->meshStats(i), stats_[i]))
            continue;
        provisional_.dataFlips = out[i].dataFlips;
        exact_->decodeBatch(syndromes + i, 1, out + i, ws);
        repairFrom(out[i], stats_[i]);
    }
}

void
TieredDecoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                                 std::size_t count, Correction *out,
                                 TrialWorkspace &ws)
{
    if (count == 0)
        return;
    stats_.resize(count);
    // First tier: the mesh's round-majority window reduction, whose
    // inner decodes leave the telemetry we score; escalation runs the
    // exact backend's own (spacetime, when it has one) window decode.
    mesh_->decodeWindowBatch(windows, count, out, ws);
    for (std::size_t i = 0; i < count; ++i) {
        ++windowDecodes_;
        if (!scoreDecode(*mesh_->meshStats(i), stats_[i]))
            continue;
        provisional_.dataFlips = out[i].dataFlips;
        exact_->decodeWindowBatch(windows + i, 1, out + i, ws);
        repairFrom(out[i], stats_[i]);
    }
}

void
TieredDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ != 0) {
        out.add("decoder.tiered.decodes", decodes_);
        out.add("decoder.tiered.window_decodes", windowDecodes_);
        out.add("decoder.tiered.escalations", escalations_);
        out.add("decoder.tiered.repairs", repairs_);
        out.add("decoder.tiered.repair_flips", repairFlipsTotal_);
        out.mergeHistogram("decoder.tiered.confidence_q64",
                           confidenceHist_, confidenceBinSum_);
    }
    mesh_->exportMetrics(out);
    exact_->exportMetrics(out);
}

std::string
TieredDecoder::name() const
{
    char thr[32];
    std::snprintf(thr, sizeof thr, "%.2f", threshold_);
    return "tiered[" + mesh_->name() + "->" + exact_->name() + "@" +
           thr + "]";
}

} // namespace nisqpp
