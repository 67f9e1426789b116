#include "decoders/union_find_decoder.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"


namespace nisqpp {

namespace {

/** Path-halving find on one parent array. */
inline int
findRoot(int *parent, int v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

/**
 * Scan (and rezero) the erasure bitset @p bits of @p words words into
 * @p erasure. Bit order IS ascending vertex order, so forest roots are
 * chosen in the order of a whole-graph scan with no dedup pass or sort.
 */
inline void
drainErasure(std::uint64_t *bits, std::size_t words,
             std::vector<int> &erasure)
{
    erasure.clear();
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = bits[w];
        bits[w] = 0;
        while (word) {
            erasure.push_back(static_cast<int>(w * 64) +
                              std::countr_zero(word));
            word &= word - 1;
        }
    }
}

} // namespace

void
UnionFindDecoder::peelErasure(const Graph &graph,
                              const std::vector<int> &erasure,
                              const char *support, TrialWorkspace &ws,
                              Correction &out)
{
    const auto &edges = graph.edges;
    const int *incOff = graph.incOff.data();
    const int *incEdges = graph.incEdges.data();
    const int numAncillaVertices = graph.numAncillaVertices;

    // The FIFO queue IS the visit order, so one vector serves as both;
    // `head` persists across roots (each BFS drains fully before the
    // next root is seeded). Roots are stamped -1; every other vertex
    // whose parentEdge the peel reads was reached, and so written,
    // first.
    char *hot = ws.ufHot.data();
    char *visited = ws.ufVisited.data();
    int *parentEdge = ws.ufParentEdge.data();
    auto &bfsOrder = ws.ufBfsOrder;
    bfsOrder.clear();
    std::size_t head = 0;
    auto bfsFrom = [&](int root) {
        bfsOrder.push_back(root);
        visited[root] = 1;
        parentEdge[root] = -1;
        while (head < bfsOrder.size()) {
            const int v = bfsOrder[head++];
            for (int k = incOff[v]; k < incOff[v + 1]; ++k) {
                const int ed = incEdges[k];
                if (support[ed] < 2)
                    continue;
                const int w = edges[ed].u == v ? edges[ed].v
                                               : edges[ed].u;
                if (visited[w])
                    continue;
                visited[w] = 1;
                parentEdge[w] = ed;
                bfsOrder.push_back(w);
            }
        }
    };

    // Boundary roots first so leftover parity drains into boundaries.
    for (int v : erasure)
        if (v >= numAncillaVertices && !visited[v])
            bfsFrom(v);
    for (int v : erasure)
        if (v < numAncillaVertices && !visited[v])
            bfsFrom(v);

    for (std::size_t i = bfsOrder.size(); i-- > 0;) {
        const int v = bfsOrder[i];
        if (!hot[v] || parentEdge[v] < 0)
            continue;
        const GraphEdge &ed = edges[parentEdge[v]];
        const int p = ed.u == v ? ed.v : ed.u;
        // Time-like tree edges (dataIdx < 0) re-interpret measurement
        // flips: parity still moves to the parent, no data flip.
        if (ed.dataIdx >= 0)
            out.dataFlips.push_back(ed.dataIdx);
        hot[v] = 0;
        hot[p] ^= 1;
    }
}

void
UnionFindDecoder::appendSpatialEdges(const SurfaceLattice &lattice,
                                     ErrorType type, int base,
                                     Graph &graph)
{
    // Ancilla-ancilla edges: one per interior data qubit (it has exactly
    // two detecting ancillas); ancilla-boundary edges: one per boundary
    // data qubit, with a private virtual boundary vertex.
    for (int d = 0; d < lattice.numData(); ++d) {
        const auto &ancs = lattice.dataAncillaNeighbors(type, d);
        if (ancs.size() == 2)
            graph.edges.push_back({base + ancs[0], base + ancs[1], d});
        else if (ancs.size() == 1)
            graph.edges.push_back({base + ancs[0], graph.numVertices++, d});
        else
            panic("UnionFindDecoder: data qubit with no detecting "
                  "ancilla");
    }
}

void
UnionFindDecoder::Graph::buildIncidence()
{
    // Counting sort of the edge endpoints by vertex, filled in
    // ascending edge id: each vertex's list is ascending, the same
    // order per-vertex push_back during construction would give.
    incOff.assign(numVertices + 1, 0);
    for (const GraphEdge &e : edges) {
        ++incOff[e.u + 1];
        ++incOff[e.v + 1];
    }
    for (int v = 0; v < numVertices; ++v)
        incOff[v + 1] += incOff[v];
    incEdges.resize(incOff[numVertices]);
    std::vector<int> next(incOff.begin(), incOff.end() - 1);
    for (int id = 0; id < static_cast<int>(edges.size()); ++id) {
        incEdges[next[edges[id].u]++] = id;
        incEdges[next[edges[id].v]++] = id;
    }
}

UnionFindDecoder::UnionFindDecoder(const SurfaceLattice &lattice,
                                   ErrorType type)
    : Decoder(lattice, type)
{
    const int na = lattice.numAncilla(type);
    graph_.numAncillaVertices = na;
    graph_.numVertices = na;
    appendSpatialEdges(lattice, type, 0, graph_);
    graph_.buildIncidence();
}

const UnionFindDecoder::Graph &
UnionFindDecoder::windowGraph(int rounds)
{
    if (windowGraphRounds_ == rounds)
        return windowGraph_;

    // Spacetime layout: vertex (t, a) = t * na + a for the real
    // ancilla slots of all rounds, virtual boundary vertices after.
    const SurfaceLattice &lat = lattice();
    const int na = lat.numAncilla(type());
    Graph g;
    g.numAncillaVertices = rounds * na;
    g.numVertices = rounds * na;

    for (int t = 0; t < rounds; ++t) {
        const int base = t * na;
        // Spatial edges of round t (the 2D construction, offset).
        appendSpatialEdges(lat, type(), base, g);
        // Time-like edges to round t+1: a measurement flip at (t, a)
        // fires events in rounds t and t+1; the edge carries no data
        // qubit.
        if (t + 1 < rounds)
            for (int a = 0; a < na; ++a)
                g.edges.push_back({base + a, base + na + a, -1});
    }
    g.buildIncidence();

    windowGraph_ = std::move(g);
    windowGraphRounds_ = rounds;
    return windowGraph_;
}

void
UnionFindDecoder::noteDecode(const Correction &corr)
{
    ++decodes_;
    growthRoundsTotal_ += static_cast<std::uint64_t>(lastRounds_);
    roundsHist_.add(static_cast<std::size_t>(lastRounds_));
    peelFlipsTotal_ += corr.dataFlips.size();
}

void
UnionFindDecoder::exportMetrics(obs::MetricSet &out) const
{
    if (decodes_ == 0)
        return;
    out.add("decoder.uf.decodes", decodes_);
    out.add("decoder.uf.window_decodes", windowDecodes_);
    out.add("decoder.uf.growth_rounds", growthRoundsTotal_);
    out.add("decoder.uf.peel_flips", peelFlipsTotal_);
    out.mergeHistogram("decoder.uf.growth_rounds", roundsHist_,
                       growthRoundsTotal_);
}

const UnionFindDecoder::Graph &
UnionFindDecoder::graphFor(int rounds)
{
    return rounds == 0 ? graph_ : windowGraph(rounds);
}

void
UnionFindDecoder::decodeBatch(const Syndrome *const *syndromes,
                              std::size_t count, Correction *out,
                              TrialWorkspace &ws)
{
    decodeGroup(0, count, out, ws,
                [syndromes](std::size_t i, std::vector<int> &seeds) {
                    syndromes[i]->forEachHot(
                        [&seeds](int a) { seeds.push_back(a); });
                });
}

void
UnionFindDecoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                                    std::size_t count, Correction *out,
                                    TrialWorkspace &ws)
{
    if (count == 0)
        return;
    // The decoder caches one spacetime graph, so a batch may not mix
    // round counts.
    const int rounds = windows[0]->rounds();
    for (std::size_t i = 1; i < count; ++i)
        require(windows[i]->rounds() == rounds,
                "UnionFindDecoder: windows of one batch must have the "
                "same round count");
    windowDecodes_ += count;
    const int na = windows[0]->numAncilla();
    decodeGroup(rounds, count, out, ws,
                [windows, na](std::size_t i, std::vector<int> &seeds) {
                    windows[i]->forEachEvent([&seeds, na](int t, int a) {
                        seeds.push_back(t * na + a);
                    });
                });
}

template <typename SeedsOf>
void
UnionFindDecoder::decodeGroup(int rounds, std::size_t count,
                              Correction *out, TrialWorkspace &ws,
                              const SeedsOf &seedsOf)
{
    for (std::size_t i = 0; i < count; ++i) {
        ws.ufSeeds.clear();
        seedsOf(i, ws.ufSeeds);
        decodeScalar(rounds, ws.ufSeeds, ws, out[i]);
    }
}

void
UnionFindDecoder::decodeScalar(int rounds, const std::vector<int> &seeds,
                               TrialWorkspace &ws, Correction &out)
{
    out.clear();
    lastRounds_ = 0;
    // An empty syndrome decodes to nothing without touching (or, for
    // windows, building) the graph.
    if (seeds.empty()) {
        noteDecode(out);
        return;
    }
    const Graph &graph = graphFor(rounds);
    const int growthBound = 4 * (lattice().gridSize() + rounds) + 8;
    const auto &edges = graph.edges;
    const int *incOff = graph.incOff.data();
    const int *incEdges = graph.incEdges.data();
    const int numAncillaVertices = graph.numAncillaVertices;
    const std::size_t numVertices =
        static_cast<std::size_t>(graph.numVertices);

    // Between decodes the union-find buffers hold one neutral state
    // that fits every graph (see TrialWorkspace): grow them, neutral,
    // only when a larger graph arrives. Boundary-ness of a vertex is
    // static (v >= numAncillaVertices), so nothing is per graph.
    if (ws.ufParent.size() < numVertices) {
        const std::size_t old = ws.ufParent.size();
        ws.ufParent.resize(numVertices);
        for (std::size_t v = old; v < numVertices; ++v)
            ws.ufParent[v] = static_cast<int>(v);
        ws.ufRank.resize(numVertices, 0);
        ws.ufParity.resize(numVertices, 0);
        ws.ufBoundary.resize(numVertices, 0);
        ws.ufStamp.resize(numVertices, 0);
        ws.ufHot.resize(numVertices, 0);
        ws.ufVisited.resize(numVertices, 0);
        ws.ufParentEdge.resize(numVertices);
        ws.ufErasureBits.resize((numVertices + 63) / 64, 0);
    }
    if (ws.ufSupport.size() < edges.size())
        ws.ufSupport.resize(edges.size(), 0);

    int *parent = ws.ufParent.data();
    int *rank = ws.ufRank.data();
    char *parity = ws.ufParity.data();
    // boundary[r]: root r's cluster holds a boundary vertex other
    // than (possibly) r itself.
    char *boundary = ws.ufBoundary.data();
    char *support = ws.ufSupport.data();
    int *stamp = ws.ufStamp.data();
    for (int s : seeds)
        parity[s] = 1;

    auto unite = [&](int a, int b) {
        a = findRoot(parent, a);
        b = findRoot(parent, b);
        if (a == b)
            return;
        if (rank[a] < rank[b])
            std::swap(a, b);
        parent[b] = a;
        if (rank[a] == rank[b])
            ++rank[a];
        parity[a] ^= parity[b];
        boundary[a] |= boundary[b] | (b >= numAncillaVertices);
    };

    // Cluster growth: odd non-boundary clusters add half-edge support to
    // all edges on their border each round; edges with full support merge
    // their endpoints. Only cluster members can sit on an active border,
    // and every member is a hot seed or an endpoint of a previously
    // grown edge — so each round scans just that candidate frontier
    // instead of the whole graph. Support increments, growth rounds and
    // the final erasure are identical to the full-graph scan (each
    // active endpoint contributes one half edge either way); the
    // retained reference decoder in the tests pins this bit for bit.
    auto &candidates = ws.ufCandidates;
    auto &grown = ws.ufGrown;
    candidates.assign(seeds.begin(), seeds.end());

    for (;;) {
        bool any_active = false;
        grown.clear();
        const int round_stamp = lastRounds_ + 1;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            const int v = candidates[ci];
            if (stamp[v] == round_stamp)
                continue;
            stamp[v] = round_stamp;
            const int r = findRoot(parent, v);
            if (!parity[r] || r >= numAncillaVertices || boundary[r])
                continue;
            for (int k = incOff[v]; k < incOff[v + 1]; ++k) {
                const int e = incEdges[k];
                if (support[e] >= 2)
                    continue;
                any_active = true;
                if (++support[e] >= 2)
                    grown.push_back(e);
            }
        }
        if (!any_active)
            break;
        ++lastRounds_;
        for (int e : grown) {
            unite(edges[e].u, edges[e].v);
            candidates.push_back(edges[e].u);
            candidates.push_back(edges[e].v);
        }
        require(lastRounds_ <= growthBound,
                "UnionFindDecoder: growth failed to converge");
    }

    // Peeling on the erasure (fully grown edges). After the growth
    // loop the candidate list holds exactly the hot seeds plus every
    // grown edge's endpoints — i.e. the whole erasure (every hot vertex
    // ends incident to a full edge); the all-zero erasure bitset turns
    // it into the ascending, deduplicated erasure.
    char *hot = ws.ufHot.data();
    char *visited = ws.ufVisited.data();
    for (int s : seeds)
        hot[s] = 1;

    std::uint64_t *eraseBits = ws.ufErasureBits.data();
    for (int v : candidates)
        eraseBits[v >> 6] |= std::uint64_t{1} << (v & 63);
    auto &erasure = ws.ufGrown; // growth loop is done with it
    drainErasure(eraseBits, (numVertices + 63) / 64, erasure);

    peelErasure(graph, erasure, support, ws, out);

    // One pass over the erasure. Boundary vertices absorb anything
    // left; every interior vertex must have drained (non-roots by the
    // peel, interior roots because their cluster parity is even by the
    // growth exit condition). hot is only ever set on seeds and tree
    // parents, both in the erasure, so this is the whole-graph check.
    // The same pass rewinds the buffers to the neutral state: every
    // vertex a decode wrote is in the erasure, and every edge whose
    // support moved borders one.
    for (int v : erasure) {
        require(v >= numAncillaVertices || !hot[v],
                "UnionFindDecoder: peeling left a hot interior vertex");
        parent[v] = v;
        rank[v] = 0;
        parity[v] = 0;
        boundary[v] = 0;
        stamp[v] = 0;
        hot[v] = 0;
        visited[v] = 0;
        for (int k = incOff[v]; k < incOff[v + 1]; ++k)
            support[incEdges[k]] = 0;
    }
    noteDecode(out);
}

} // namespace nisqpp
