#include "decoders/mwpm_decoder.hh"

#include "common/logging.hh"
#include "decoders/path.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

void
MwpmDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ == 0)
        return;
    out.add("decoder.mwpm.decodes", decodes_);
    out.add("decoder.mwpm.window_decodes", windowDecodes_);
    out.add("decoder.mwpm.augmentations", augmentationsTotal_);
    out.add("decoder.mwpm.pairs", pairsTotal_);
    out.add("decoder.mwpm.correction_flips", correctionFlipsTotal_);
}

void
MwpmDecoder::decodeBatch(const Syndrome *const *syndromes,
                         std::size_t count, Correction *out,
                         TrialWorkspace &ws)
{
    for (std::size_t i = 0; i < count; ++i) {
        ws.graph.build(lattice(), type(), *syndromes[i]);
        matchBuiltGraph(ws, out[i]);
    }
}

void
MwpmDecoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                               std::size_t count, Correction *out,
                               TrialWorkspace &ws)
{
    for (std::size_t i = 0; i < count; ++i) {
        ++windowDecodes_;
        ws.graph.buildWindow(lattice(), type(), *windows[i]);
        matchBuiltGraph(ws, out[i]);
    }
}

void
MwpmDecoder::matchBuiltGraph(TrialWorkspace &ws, Correction &out)
{
    pairs_.clear();
    out.clear();
    ++decodes_;
    const MatchingGraph &graph = ws.graph;
    const int k = graph.numNodes();
    if (k == 0)
        return;

    // Nodes 0..k-1 are defects (hot ancillas, or detection events on
    // spacetime builds); k..2k-1 their private boundary nodes, with
    // free boundary-boundary edges. pairWeight carries the time-like
    // |dt| term on spacetime builds.
    BlossomMatcher &matcher = ws.matcher;
    matcher.reset(2 * k);
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j)
            matcher.setWeight(i, j, graph.pairWeight(i, j));
        matcher.setWeight(i, k + i, graph.boundaryWeight(i));
        for (int j = i + 1; j < k; ++j)
            matcher.setWeight(k + i, k + j, 0);
    }
    matcher.solve(ws.mate);
    augmentationsTotal_ +=
        static_cast<std::uint64_t>(matcher.lastAugmentations());

    for (int i = 0; i < k; ++i) {
        const int m = ws.mate[i];
        require(m >= 0, "MwpmDecoder: unmatched node");
        if (m == k + i) {
            pairs_.push_back({graph.ancillaOf(i), -1, true});
            appendChainToBoundary(lattice(), type(), graph.ancillaOf(i),
                                  out.dataFlips);
        } else if (m < k && m > i) {
            pairs_.push_back({graph.ancillaOf(i), graph.ancillaOf(m),
                              false});
            // A pure time-like pairing (same ancilla, different
            // rounds) is a measurement error: no data flips.
            if (graph.ancillaOf(i) != graph.ancillaOf(m))
                appendChainBetweenAncillas(lattice(), type(),
                                           graph.ancillaOf(i),
                                           graph.ancillaOf(m),
                                           out.dataFlips);
        }
    }
    pairsTotal_ += pairs_.size();
    correctionFlipsTotal_ += out.dataFlips.size();
}

} // namespace nisqpp
