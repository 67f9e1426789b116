#include "decoders/greedy_decoder.hh"

#include <algorithm>
#include <tuple>

#include "decoders/path.hh"
#include "decoders/workspace.hh"

namespace nisqpp {

void
GreedyDecoder::decodeBatch(const Syndrome *const *syndromes,
                           std::size_t count, Correction *out,
                           TrialWorkspace &ws)
{
    for (std::size_t i = 0; i < count; ++i)
        decodeInto(*syndromes[i], ws, out[i]);
}

void
GreedyDecoder::decodeInto(const Syndrome &syndrome, TrialWorkspace &ws,
                          Correction &out)
{
    pairs_.clear();
    out.clear();
    ws.graph.build(lattice(), type(), syndrome);
    const MatchingGraph &graph = ws.graph;
    const int k = graph.numNodes();
    if (k == 0)
        return;

    std::vector<WeightedEdge> &edges = ws.greedyEdges;
    edges.clear();
    edges.reserve(static_cast<std::size_t>(k) * (k + 1) / 2);
    for (int i = 0; i < k; ++i) {
        for (int j = i + 1; j < k; ++j)
            edges.push_back({graph.pairWeight(i, j), i, j});
        edges.push_back({graph.boundaryWeight(i), i, -1});
    }
    // Ascending distance = descending likelihood; deterministic
    // tie-breaking by node indices (boundary edges lose ties so that
    // syndrome-syndrome pairings are preferred at equal length).
    auto key = [k](const WeightedEdge &c) {
        return std::tuple<int, int, int>(c.w, c.i, c.j == -1 ? k : c.j);
    };
    std::sort(edges.begin(), edges.end(),
              [&key](const WeightedEdge &a, const WeightedEdge &b) {
                  return key(a) < key(b);
              });

    std::vector<char> &matched = ws.matched;
    matched.assign(k, 0);
    for (const auto &e : edges) {
        if (matched[e.i])
            continue;
        if (e.j == -1) {
            matched[e.i] = 1;
            pairs_.push_back({graph.ancillaOf(e.i), -1, true});
            appendChainToBoundary(lattice(), type(),
                                  graph.ancillaOf(e.i),
                                  out.dataFlips);
        } else if (!matched[e.j]) {
            matched[e.i] = matched[e.j] = 1;
            pairs_.push_back({graph.ancillaOf(e.i), graph.ancillaOf(e.j),
                              false});
            appendChainBetweenAncillas(lattice(), type(),
                                       graph.ancillaOf(e.i),
                                       graph.ancillaOf(e.j),
                                       out.dataFlips);
        }
    }
}

} // namespace nisqpp
