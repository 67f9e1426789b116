#include "decoders/union_find_decoder.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"


namespace nisqpp {

namespace {

/**
 * Cluster bits, kept at each root in ufCluster (stale at non-roots).
 * A cluster is live, and grows, iff its bits are exactly kOdd.
 */
constexpr char kOdd = 1;      ///< odd number of hot vertices
constexpr char kBoundary = 2; ///< holds a boundary vertex
constexpr char kListed = 4;   ///< already in the next round's live list

/** Mark vertex @p v in the erasure bitset @p bits. */
inline void
markErasure(std::uint64_t *bits, int v)
{
    bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

/**
 * Scan (and rezero) the erasure bitset @p bits of @p words words into
 * @p erasure, returning its size. Bit order IS ascending vertex order,
 * so forest roots are chosen in the order of a whole-graph scan with
 * no dedup pass or sort.
 */
inline std::size_t
drainErasure(std::uint64_t *bits, std::size_t words, int *erasure)
{
    std::size_t n = 0;
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = bits[w];
        bits[w] = 0;
        while (word) {
            erasure[n++] = static_cast<int>(w * 64) +
                           std::countr_zero(word);
            word &= word - 1;
        }
    }
    return n;
}

} // namespace

std::size_t
UnionFindDecoder::growClusters(const Graph &graph,
                               const std::vector<int> &seeds,
                               int growthBound, TrialWorkspace &ws)
{
    const GraphEdge *edges = graph.edges.data();
    const int *incOff = graph.incOff.data();
    const int *incEdges = graph.incEdges.data();
    const int numAncillaVertices = graph.numAncillaVertices;
    int *parent = ws.ufParent.data();
    int *next = ws.ufNext.data();
    int *size = ws.ufSize.data();
    char *cluster = ws.ufCluster.data();
    char *support = ws.ufSupport.data();
    int *live = ws.ufLive.data();
    int *grown = ws.ufGrown.data();

    // Every seed starts as a live singleton: odd, and an ancilla.
    std::size_t numLive = seeds.size();
    for (std::size_t i = 0; i < numLive; ++i) {
        live[i] = seeds[i];
        cluster[seeds[i]] = kOdd;
    }
    std::size_t numGrown = 0;
    while (numLive > 0) {
        ++lastRounds_;
        // Every member of a live cluster adds a half edge to each
        // incident edge below full support; an edge that reaches full
        // support is appended to `grown` (the slot past the end is
        // written either way). Which edges reach full support does not
        // depend on the order the clusters are walked in.
        const std::size_t roundStart = numGrown;
        for (std::size_t i = 0; i < numLive; ++i) {
            const int r = live[i];
            int v = r;
            do {
                for (int k = incOff[v]; k < incOff[v + 1]; ++k) {
                    const int e = incEdges[k];
                    const char s = support[e];
                    support[e] = static_cast<char>(s + (s < 2));
                    grown[numGrown] = e;
                    numGrown += s == 1;
                }
                v = next[v];
            } while (v != r);
        }

        // Merge along this round's grown edges, quick-find style: the
        // smaller cluster's members are relabelled to the larger
        // root, and the two circular member lists are spliced.
        for (std::size_t j = roundStart; j < numGrown; ++j) {
            const GraphEdge &ed = edges[grown[j]];
            int a = parent[ed.u];
            int b = parent[ed.v];
            if (a == b)
                continue;
            if (size[a] < size[b])
                std::swap(a, b);
            int w = b;
            do {
                parent[w] = a;
                w = next[w];
            } while (w != b);
            std::swap(next[a], next[b]);
            size[a] += size[b];
            const bool touches = a >= numAncillaVertices ||
                                 b >= numAncillaVertices;
            cluster[a] = static_cast<char>(
                (cluster[a] ^ (cluster[b] & kOdd)) |
                (cluster[b] & kBoundary) | (touches ? kBoundary : 0));
        }

        // Every cluster a merge changed holds one of this round's live
        // roots, so the next round's live roots are among their new
        // roots. kListed makes a root listed once read as not live, so
        // clusters that merged into one are listed once; it is
        // cleared again right after.
        std::size_t n = 0;
        for (std::size_t i = 0; i < numLive; ++i) {
            const int r = parent[live[i]];
            const bool isLive = cluster[r] == kOdd;
            live[n] = r;
            n += isLive;
            cluster[r] = static_cast<char>(cluster[r] |
                                           (isLive ? kListed : 0));
        }
        for (std::size_t i = 0; i < n; ++i)
            cluster[live[i]] = kOdd;
        numLive = n;
        require(lastRounds_ <= growthBound,
                "UnionFindDecoder: growth failed to converge");
    }
    return numGrown;
}

void
UnionFindDecoder::peelErasure(const Graph &graph,
                              const std::vector<int> &seeds,
                              std::size_t numGrown, TrialWorkspace &ws,
                              Correction &out)
{
    const GraphEdge *edges = graph.edges.data();
    const int *incOff = graph.incOff.data();
    const int *incEdges = graph.incEdges.data();
    const int *incNbr = graph.incNbr.data();
    const int numAncillaVertices = graph.numAncillaVertices;
    char *support = ws.ufSupport.data();
    char *hot = ws.ufHot.data();
    char *visited = ws.ufVisited.data();
    int *parentEdge = ws.ufParentEdge.data();
    int *order = ws.ufBfsOrder.data();

    // The erasure is the seeds plus both ends of every grown edge
    // (every cluster member), ascending and deduplicated by the
    // bitset. It overwrites the grown edges once they are all marked.
    std::uint64_t *bits = ws.ufErasureBits.data();
    for (int s : seeds) {
        hot[s] = 1;
        markErasure(bits, s);
    }
    int *erasure = ws.ufGrown.data();
    for (std::size_t j = 0; j < numGrown; ++j) {
        const GraphEdge &ed = edges[erasure[j]];
        markErasure(bits, ed.u);
        markErasure(bits, ed.v);
    }
    const std::size_t erasureSize = drainErasure(
        bits, (static_cast<std::size_t>(graph.numVertices) + 63) / 64,
        erasure);

    // A BFS forest over the fully grown edges. The FIFO queue IS the
    // visit order; `head` persists across roots (each BFS drains fully
    // before the next root is offered). Every step writes its queue
    // slot and computes whether it counts as a select, so `order`
    // holds one slot past the erasure; GCC 12 at -O3 still branches on
    // `take` (see the header). Roots get parent
    // edge -1; every other vertex the flip pass reads was reached, and
    // so written, first.
    std::size_t head = 0;
    std::size_t tail = 0;
    auto offerRoot = [&](int root) {
        const bool fresh = !visited[root];
        order[tail] = root;
        parentEdge[root] = fresh ? -1 : parentEdge[root];
        visited[root] = 1;
        tail += fresh;
        while (head < tail) {
            const int v = order[head++];
            for (int k = incOff[v]; k < incOff[v + 1]; ++k) {
                const int e = incEdges[k];
                const int w = incNbr[k];
                const bool take = (support[e] == 2) & !visited[w];
                order[tail] = w;
                parentEdge[w] = take ? e : parentEdge[w];
                visited[w] = static_cast<char>(visited[w] | take);
                tail += take;
            }
        }
    };
    // Boundary roots first so leftover parity drains into boundaries.
    // Boundary vertices number after every ancilla vertex, so they
    // are the erasure's suffix.
    const std::size_t firstBoundary = static_cast<std::size_t>(
        std::lower_bound(erasure, erasure + erasureSize,
                         numAncillaVertices) -
        erasure);
    for (std::size_t i = firstBoundary; i < erasureSize; ++i)
        offerRoot(erasure[i]);
    for (std::size_t i = 0; i < firstBoundary; ++i)
        offerRoot(erasure[i]);

    // Leaves to roots: a hot non-root moves its parity across its tree
    // edge to the parent. Time-like tree edges (dataIdx < 0)
    // re-interpret measurement flips: parity still moves, no data flip.
    // A root reads edge 0 and changes nothing. Only later (shallower)
    // vertices can still move v's parity, so once v is done its hot
    // byte is final: boundary vertices absorb anything left, and
    // interior vertices must have drained (interior roots because
    // their cluster parity is even by the growth exit condition).
    // The same pass rewinds v to the neutral state: every vertex a
    // decode wrote is in the erasure, and every edge whose support
    // moved borders one.
    int *parent = ws.ufParent.data();
    int *next = ws.ufNext.data();
    int *size = ws.ufSize.data();
    char *cluster = ws.ufCluster.data();
    int *flips = ws.ufFlips.data();
    std::size_t numFlips = 0;
    for (std::size_t i = tail; i-- > 0;) {
        const int v = order[i];
        const int pe = parentEdge[v];
        const bool tree = pe >= 0;
        const GraphEdge &ed = edges[tree ? pe : 0];
        const char h = static_cast<char>(hot[v] & tree);
        const int p = h ? (ed.u ^ ed.v ^ v) : v;
        flips[numFlips] = ed.dataIdx;
        numFlips += h & (ed.dataIdx >= 0);
        hot[p] ^= h;
        require(v >= numAncillaVertices || hot[v] == h,
                "UnionFindDecoder: peeling left a hot interior vertex");
        hot[v] = 0;
        parent[v] = v;
        next[v] = v;
        size[v] = 1;
        cluster[v] = 0;
        visited[v] = 0;
        for (int k = incOff[v]; k < incOff[v + 1]; ++k)
            support[incEdges[k]] = 0;
    }
    out.dataFlips.assign(flips, flips + numFlips);
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
    // incNbr[k] is the far end of incidence k's edge.
    incOff.assign(numVertices + 1, 0);
    for (const GraphEdge &e : edges) {
        ++incOff[e.u + 1];
        ++incOff[e.v + 1];
    }
    for (int v = 0; v < numVertices; ++v)
        incOff[v + 1] += incOff[v];
    incEdges.resize(incOff[numVertices]);
    incNbr.resize(incOff[numVertices]);
    std::vector<int> next(incOff.begin(), incOff.end() - 1);
    for (int id = 0; id < static_cast<int>(edges.size()); ++id) {
        const GraphEdge &e = edges[id];
        incNbr[next[e.u]] = e.v;
        incEdges[next[e.u]++] = id;
        incNbr[next[e.v]] = e.u;
        incEdges[next[e.v]++] = id;
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
    const std::size_t numVertices =
        static_cast<std::size_t>(graph.numVertices);
    const std::size_t numEdges = graph.edges.size();

    // Between decodes the union-find buffers hold one neutral state
    // that fits every graph (see TrialWorkspace): grow them, neutral,
    // only when a larger graph arrives. Boundary-ness of a vertex is
    // static (v >= numAncillaVertices), so nothing is per graph.
    if (ws.ufParent.size() < numVertices) {
        const std::size_t old = ws.ufParent.size();
        ws.ufParent.resize(numVertices);
        ws.ufNext.resize(numVertices);
        for (std::size_t v = old; v < numVertices; ++v)
            ws.ufParent[v] = ws.ufNext[v] = static_cast<int>(v);
        ws.ufSize.resize(numVertices, 1);
        ws.ufCluster.resize(numVertices, 0);
        ws.ufHot.resize(numVertices, 0);
        ws.ufVisited.resize(numVertices, 0);
        ws.ufErasureBits.resize((numVertices + 63) / 64, 0);
        ws.ufLive.resize(numVertices);
        ws.ufParentEdge.resize(numVertices);
        ws.ufBfsOrder.resize(numVertices + 1);
        ws.ufFlips.resize(numVertices);
    }
    if (ws.ufSupport.size() < numEdges)
        ws.ufSupport.resize(numEdges, 0);
    if (ws.ufGrown.size() <= std::max(numEdges, numVertices))
        ws.ufGrown.resize(std::max(numEdges, numVertices) + 1);

    std::size_t numGrown;
    {
        obs::TraceSpan span(obs::Stage::UfGrow);
        numGrown = growClusters(
            graph, seeds, 4 * (lattice().gridSize() + rounds) + 8, ws);
    }
    {
        obs::TraceSpan span(obs::Stage::UfPeel);
        peelErasure(graph, seeds, numGrown, ws, out);
    }
    noteDecode(out);
}

} // namespace nisqpp
