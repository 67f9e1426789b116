/**
 * @file Workspace property tests: for every decoder family, decoding
 * through one long-lived TrialWorkspace (buffers dirty from *other*
 * decoders, distances and error types) must produce exactly the same
 * corrections as the workspace-free decode() entry point, across
 * lattices d = 3..11 and many random syndromes. Also pins the
 * live-cluster union-find growth and branch-free peel to a retained
 * reference implementation of the original whole-graph scan (2D and
 * spacetime), and checks that the union-find buffers return to their
 * neutral state after every decode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/mesh_decoder.hh"
#include "decoders/greedy_decoder.hh"
#include "support/lut_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "surface/error_state.hh"
#include "surface/syndrome.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {
namespace {

/** A random but valid syndrome: extracted from a random error state. */
Syndrome
randomSyndrome(Rng &rng, const SurfaceLattice &lat, ErrorType type,
               double p)
{
    ErrorState state(lat);
    for (int d = 0; d < lat.numData(); ++d)
        if (rng.bernoulli(p))
            state.flip(type, d);
    return extractSyndrome(state, type);
}

/**
 * The original union-find decoder, retained as the reference the
 * production decoder is pinned against: whole-graph edge scan per
 * growth round with path-halving union by rank, queue-based BFS peel
 * over all vertices. It builds the 2D graph for rounds == 0, else the
 * production decoder's spacetime layout: vertex (t, a) = t * na + a,
 * each round's spatial edges (private boundary vertices numbered as
 * they appear) followed by its time-like edges to round t + 1.
 */
class ReferenceUnionFind
{
  public:
    ReferenceUnionFind(const SurfaceLattice &lattice, ErrorType type,
                       int rounds = 0)
    {
        const int na = lattice.numAncilla(type);
        const int layers = std::max(rounds, 1);
        numAncillaVertices_ = layers * na;
        numVertices_ = numAncillaVertices_;
        for (int t = 0; t < layers; ++t) {
            const int base = t * na;
            for (int d = 0; d < lattice.numData(); ++d) {
                const auto &ancs = lattice.dataAncillaNeighbors(type, d);
                if (ancs.size() == 2)
                    edges_.push_back({base + ancs[0], base + ancs[1], d});
                else
                    edges_.push_back({base + ancs[0], numVertices_++, d});
            }
            if (t + 1 < rounds)
                for (int a = 0; a < na; ++a)
                    edges_.push_back({base + a, base + na + a, -1});
        }
        incident_.resize(numVertices_);
        for (int id = 0; id < static_cast<int>(edges_.size()); ++id) {
            incident_[edges_[id].u].push_back(id);
            incident_[edges_[id].v].push_back(id);
        }
    }

    /** Growth rounds used by the last decode. */
    int rounds() const { return rounds_; }

    std::vector<int>
    decode(const Syndrome &syndrome)
    {
        std::vector<int> hot;
        syndrome.forEachHot([&hot](int a) { hot.push_back(a); });
        return decode(hot);
    }

    std::vector<int>
    decode(const SyndromeWindow &window)
    {
        std::vector<int> hot;
        const int na = window.numAncilla();
        window.forEachEvent(
            [&hot, na](int t, int a) { hot.push_back(t * na + a); });
        return decode(hot);
    }

    /** Decode the hot (ancilla or spacetime) vertices @p hotVertices. */
    std::vector<int>
    decode(const std::vector<int> &hotVertices)
    {
        std::vector<int> corr;
        rounds_ = 0;
        if (hotVertices.empty())
            return corr;

        parent_.resize(numVertices_);
        rank_.assign(numVertices_, 0);
        parity_.assign(numVertices_, 0);
        boundary_.assign(numVertices_, 0);
        for (int v = 0; v < numVertices_; ++v)
            parent_[v] = v;
        for (int v = numAncillaVertices_; v < numVertices_; ++v)
            boundary_[v] = 1;
        for (int v : hotVertices)
            parity_[v] = 1;

        std::vector<char> support(edges_.size(), 0);
        auto clusterActive = [&](int v) {
            const int r = find(v);
            return parity_[r] && !boundary_[r];
        };
        for (;;) {
            bool any_active = false;
            std::vector<int> grown;
            for (std::size_t e = 0; e < edges_.size(); ++e) {
                if (support[e] >= 2)
                    continue;
                const bool a_act = clusterActive(edges_[e].u);
                const bool b_act = clusterActive(edges_[e].v);
                const int inc = (a_act ? 1 : 0) + (b_act ? 1 : 0);
                if (inc == 0)
                    continue;
                any_active = true;
                support[e] = static_cast<char>(
                    std::min(2, support[e] + inc));
                if (support[e] >= 2)
                    grown.push_back(static_cast<int>(e));
            }
            if (!any_active)
                break;
            ++rounds_;
            for (int e : grown)
                unite(edges_[e].u, edges_[e].v);
        }

        std::vector<char> hot(numVertices_, 0);
        for (int v : hotVertices)
            hot[v] = 1;
        std::vector<int> parent_edge(numVertices_, -1);
        std::vector<int> bfs_order;
        std::vector<char> visited(numVertices_, 0);
        auto bfsFrom = [&](int root) {
            std::queue<int> q;
            q.push(root);
            visited[root] = 1;
            while (!q.empty()) {
                const int v = q.front();
                q.pop();
                bfs_order.push_back(v);
                for (int e : incident_[v]) {
                    if (support[e] < 2)
                        continue;
                    const int w = edges_[e].u == v ? edges_[e].v
                                                   : edges_[e].u;
                    if (visited[w])
                        continue;
                    visited[w] = 1;
                    parent_edge[w] = e;
                    q.push(w);
                }
            }
        };
        for (int v = numAncillaVertices_; v < numVertices_; ++v)
            if (!visited[v])
                bfsFrom(v);
        for (int v = 0; v < numAncillaVertices_; ++v)
            if (!visited[v])
                bfsFrom(v);

        for (std::size_t i = bfs_order.size(); i-- > 0;) {
            const int v = bfs_order[i];
            if (!hot[v] || parent_edge[v] < 0)
                continue;
            const auto &e = edges_[parent_edge[v]];
            const int p = e.u == v ? e.v : e.u;
            // Time-like edges carry no data qubit.
            if (e.dataIdx >= 0)
                corr.push_back(e.dataIdx);
            hot[v] = 0;
            hot[p] ^= 1;
        }
        return corr;
    }

  private:
    struct GraphEdge
    {
        int u, v, dataIdx;
    };

    int find(int v)
    {
        while (parent_[v] != v) {
            parent_[v] = parent_[parent_[v]];
            v = parent_[v];
        }
        return v;
    }

    void unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        if (rank_[a] < rank_[b])
            std::swap(a, b);
        parent_[b] = a;
        if (rank_[a] == rank_[b])
            ++rank_[a];
        parity_[a] ^= parity_[b];
        boundary_[a] |= boundary_[b];
    }

    std::vector<GraphEdge> edges_;
    std::vector<std::vector<int>> incident_;
    int numAncillaVertices_ = 0;
    int numVertices_ = 0;
    int rounds_ = 0;
    std::vector<int> parent_, rank_;
    std::vector<char> parity_, boundary_;
};

/**
 * A random faulty-measurement window of @p rounds rounds: fresh @p type
 * errors at rate @p p each noisy round, readouts flipped at rate @p p,
 * and a perfect final commit round.
 */
SyndromeWindow
randomWindow(Rng &rng, const SurfaceLattice &lat, ErrorType type,
             int rounds, double p)
{
    SyndromeWindow win(lat, type, rounds);
    ErrorState state(lat);
    Syndrome syn(lat, type);
    for (int t = 0; t < rounds; ++t) {
        const bool noisy = t + 1 < rounds;
        if (noisy)
            for (int d = 0; d < lat.numData(); ++d)
                if (rng.bernoulli(p))
                    state.flip(type, d);
        extractSyndromeInto(state, type, syn);
        if (noisy)
            for (int a = 0; a < syn.size(); ++a)
                if (rng.bernoulli(p))
                    syn.flip(a);
        win.recordRound(t, syn);
    }
    return win;
}

/**
 * The union-find buffers' between-decodes state (TrialWorkspace):
 * every vertex its own one-member cluster (root and member list back
 * to identity), every flag zero, no support, no erasure bit.
 */
void
expectUnionFindNeutral(const TrialWorkspace &ws, const std::string &where)
{
    ASSERT_EQ(ws.ufNext.size(), ws.ufParent.size()) << where;
    ASSERT_EQ(ws.ufSize.size(), ws.ufParent.size()) << where;
    for (std::size_t v = 0; v < ws.ufParent.size(); ++v) {
        ASSERT_EQ(ws.ufParent[v], static_cast<int>(v)) << where;
        ASSERT_EQ(ws.ufNext[v], static_cast<int>(v)) << where;
        ASSERT_EQ(ws.ufSize[v], 1) << where;
    }
    auto allZero = [](const auto &buf) {
        return std::all_of(buf.begin(), buf.end(),
                           [](auto x) { return x == 0; });
    };
    EXPECT_TRUE(allZero(ws.ufCluster)) << where;
    EXPECT_TRUE(allZero(ws.ufHot)) << where;
    EXPECT_TRUE(allZero(ws.ufVisited)) << where;
    EXPECT_TRUE(allZero(ws.ufSupport)) << where;
    EXPECT_TRUE(allZero(ws.ufErasureBits)) << where;
}

TEST(Workspace, UnionFindMatchesReferenceImplementation)
{
    // Corrections (flip order included) and growth-round counts equal
    // the reference's on the 2D graph and on spacetime windows of 2-8
    // rounds, from sparse to dense syndromes, through one shared
    // workspace.
    Rng rng(0x0f4eULL);
    TrialWorkspace ws; // deliberately shared across everything below
    for (int d = 3; d <= 11; d += 2) {
        SurfaceLattice lat(d);
        for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
            UnionFindDecoder decoder(lat, type);
            ReferenceUnionFind reference(lat, type);
            for (const double p : {0.02, 0.08, 0.15}) {
                const std::string where =
                    "d=" + std::to_string(d) +
                    " type=" + std::to_string(static_cast<int>(type)) +
                    " p=" + std::to_string(p);
                for (int round = 0; round < 20; ++round) {
                    const Syndrome syn = randomSyndrome(rng, lat, type, p);
                    decoder.decode(syn, ws);
                    EXPECT_EQ(ws.correction.dataFlips,
                              reference.decode(syn)) << "2D " << where;
                    EXPECT_EQ(decoder.lastGrowthRounds(),
                              reference.rounds()) << "2D " << where;
                }
                for (int rounds = 2; rounds <= 8; ++rounds) {
                    ReferenceUnionFind windowReference(lat, type, rounds);
                    for (int round = 0; round < 3; ++round) {
                        const SyndromeWindow win =
                            randomWindow(rng, lat, type, rounds, p);
                        decoder.decodeWindow(win, ws);
                        EXPECT_EQ(ws.correction.dataFlips,
                                  windowReference.decode(win))
                            << "window " << where << " rounds=" << rounds;
                        EXPECT_EQ(decoder.lastGrowthRounds(),
                                  windowReference.rounds())
                            << "window " << where << " rounds=" << rounds;
                    }
                }
            }
        }
    }
}

TEST(Workspace, UnionFindThreeOddClustersMergeIntoOneLiveCluster)
{
    // Three hot ancillas in a row, away from the boundary: the first
    // round grows the two edges between them to full support, so
    // three live clusters merge into one cluster that is still odd
    // and touches no boundary. It must then grow as one cluster, once
    // per round, however many of the three live roots it came from.
    SurfaceLattice lat(9);
    for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
        // Ancilla adjacency through interior data qubits, and which
        // ancillas border a boundary data qubit.
        const int na = lat.numAncilla(type);
        std::vector<std::vector<int>> nbrs(na);
        std::vector<char> onBoundary(na, 0);
        for (int q = 0; q < lat.numData(); ++q) {
            const auto &ancs = lat.dataAncillaNeighbors(type, q);
            if (ancs.size() == 2) {
                nbrs[ancs[0]].push_back(ancs[1]);
                nbrs[ancs[1]].push_back(ancs[0]);
            } else {
                onBoundary[ancs[0]] = 1;
            }
        }
        std::vector<int> chain;
        for (int b = 0; b < na && chain.empty(); ++b) {
            if (onBoundary[b])
                continue;
            std::vector<int> inner;
            for (int a : nbrs[b])
                if (!onBoundary[a])
                    inner.push_back(a);
            if (inner.size() >= 2)
                chain = {inner[0], b, inner[1]};
        }
        ASSERT_EQ(chain.size(), 3u);

        Syndrome syn(lat, type);
        for (int a : chain)
            syn.set(a, true);
        UnionFindDecoder decoder(lat, type);
        ReferenceUnionFind reference(lat, type);
        TrialWorkspace ws;
        decoder.decode(syn, ws);
        EXPECT_EQ(ws.correction.dataFlips, reference.decode(syn));
        EXPECT_EQ(decoder.lastGrowthRounds(), reference.rounds());
        // The merged cluster stays live past the first round.
        EXPECT_GE(reference.rounds(), 2);
        expectUnionFindNeutral(ws, "three-ancilla chain");
    }
}

TEST(Workspace, UnionFindNeutralStateSurvivesGraphSwitches)
{
    // The union-find buffers are never re-initialized per decode: each
    // decode rewinds only what its erasure touched. One workspace
    // therefore carries state across a fixed interleaving of graphs —
    // distances out of order (so graphs shrink and regrow), both error
    // types, the 2D graph and spacetime windows of 2-8 rounds — at
    // rates up to p = 0.12 so erasures are large. Every decode must
    // equal a fresh-workspace decode and leave the buffers neutral.
    Rng rng(0x9e07ULL);
    TrialWorkspace ws;
    for (const int d : {9, 3, 7, 5, 11}) {
        SurfaceLattice lat(d);
        for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
            UnionFindDecoder decoder(lat, type);
            for (int rounds = 2; rounds <= 8; ++rounds) {
                const double p = 0.015 * rounds; // 0.03-0.12
                const std::string where =
                    "d=" + std::to_string(d) +
                    " type=" + std::to_string(static_cast<int>(type)) +
                    " rounds=" + std::to_string(rounds);

                const Syndrome syn = randomSyndrome(rng, lat, type, p);
                TrialWorkspace fresh;
                decoder.decode(syn, fresh);
                const int freshRounds = decoder.lastGrowthRounds();
                decoder.decode(syn, ws);
                EXPECT_EQ(ws.correction.dataFlips,
                          fresh.correction.dataFlips) << "2D " << where;
                EXPECT_EQ(decoder.lastGrowthRounds(), freshRounds)
                    << "2D " << where;
                expectUnionFindNeutral(ws, "2D " + where);

                const SyndromeWindow win =
                    randomWindow(rng, lat, type, rounds, p);
                TrialWorkspace freshWin;
                decoder.decodeWindow(win, freshWin);
                const int freshWinRounds = decoder.lastGrowthRounds();
                decoder.decodeWindow(win, ws);
                EXPECT_EQ(ws.correction.dataFlips,
                          freshWin.correction.dataFlips)
                    << "window " << where;
                EXPECT_EQ(decoder.lastGrowthRounds(), freshWinRounds)
                    << "window " << where;
                expectUnionFindNeutral(ws, "window " + where);
            }
        }
    }
}

TEST(Workspace, ReusedWorkspaceMatchesWorkspaceFreeDecodes)
{
    Rng rng(0xab5eULL);
    TrialWorkspace ws; // stays dirty across families and distances
    for (int d = 3; d <= 9; d += 2) {
        SurfaceLattice lat(d);
        for (const ErrorType type : {ErrorType::Z, ErrorType::X}) {
            std::vector<std::unique_ptr<Decoder>> decoders;
            decoders.push_back(
                std::make_unique<UnionFindDecoder>(lat, type));
            decoders.push_back(
                std::make_unique<MwpmDecoder>(lat, type));
            decoders.push_back(
                std::make_unique<GreedyDecoder>(lat, type));
            decoders.push_back(std::make_unique<MeshDecoder>(lat, type));
            if (d == 3)
                decoders.push_back(
                    std::make_unique<LutDecoder>(lat, type));
            for (int round = 0; round < 12; ++round) {
                const Syndrome syn =
                    randomSyndrome(rng, lat, type, 0.07);
                for (auto &decoder : decoders) {
                    const Correction fresh = decoder->decode(syn);
                    decoder->decode(syn, ws);
                    EXPECT_EQ(ws.correction.dataFlips, fresh.dataFlips)
                        << decoder->name() << " d=" << d;
                }
            }
        }
    }
}

TEST(Workspace, ScalarConveniencesForwardToDecodeBatch)
{
    // A decoder implementing only the batch entry point gets every
    // scalar and workspace form for free: each is a batch of one (or
    // a batch into ws.laneCorrections) over the same virtual.
    class Echo : public Decoder
    {
      public:
        using Decoder::Decoder;
        using Decoder::decodeBatch;
        void
        decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                    Correction *out, TrialWorkspace &) override
        {
            for (std::size_t i = 0; i < count; ++i) {
                out[i].clear();
                syndromes[i]->forEachHot(
                    [&](int a) { out[i].dataFlips.push_back(a); });
            }
        }
        std::string name() const override { return "echo"; }
    };

    SurfaceLattice lat(3);
    Echo decoder(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    syn.set(1, true);
    syn.set(4, true);
    const std::vector<int> want{1, 4};
    TrialWorkspace ws;
    ws.correction.dataFlips = {9, 9, 9}; // stale junk must vanish
    decoder.decode(syn, ws);
    EXPECT_EQ(ws.correction.dataFlips, want);
    EXPECT_EQ(decoder.decode(syn).dataFlips, want);

    const Syndrome *ptrs[] = {&syn, &syn};
    decoder.decodeBatch(ptrs, 2, ws);
    ASSERT_GE(ws.laneCorrections.size(), 2u);
    EXPECT_EQ(ws.laneCorrections[0].dataFlips, want);
    EXPECT_EQ(ws.laneCorrections[1].dataFlips, want);

    // The default window decode majority-votes, then decodes the vote.
    SyndromeWindow win(lat, ErrorType::Z, 3);
    for (int t = 0; t < 3; ++t)
        win.recordRound(t, syn);
    decoder.decodeWindow(win, ws);
    EXPECT_EQ(ws.correction.dataFlips, want);
}

TEST(Workspace, CorrectionsClearTheirSyndrome)
{
    // End-to-end sanity on top of equality: a UF correction decoded
    // through a reused workspace always returns the state to the code
    // space.
    Rng rng(0xdec0deULL);
    TrialWorkspace ws;
    for (int d = 3; d <= 11; d += 4) {
        SurfaceLattice lat(d);
        UnionFindDecoder decoder(lat, ErrorType::Z);
        for (int round = 0; round < 20; ++round) {
            ErrorState state(lat);
            for (int q = 0; q < lat.numData(); ++q)
                if (rng.bernoulli(0.08))
                    state.flip(ErrorType::Z, q);
            const Syndrome syn = extractSyndrome(state, ErrorType::Z);
            decoder.decode(syn, ws);
            ws.correction.applyTo(state, ErrorType::Z);
            EXPECT_FALSE(syndromeNonzero(state, ErrorType::Z));
        }
    }
}

} // namespace
} // namespace nisqpp
