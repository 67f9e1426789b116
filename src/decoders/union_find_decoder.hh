/**
 * @file
 * Union-Find decoder (Delfosse & Nickerson [9], one of the paper's
 * approximate-baseline comparisons in Fig. 11). Odd clusters grow by
 * half-edges on the ancilla graph, merge when an edge reaches full
 * support, and stop growing once they are even or touch a boundary;
 * the final erasure is peeled to a correction.
 *
 * The growth/peel core is graph-agnostic: the space-only decode runs it
 * on the 2D ancilla graph, and decodeWindowBatch runs the identical
 * algorithm on the (rounds x ancilla) spacetime graph whose time-like
 * edges carry no data qubit — they absorb measurement flips — so the
 * peeled correction is the XOR of the spatial edges only.
 *
 * Growth walks only live clusters (odd, no boundary vertex): each
 * cluster is a circular member list under quick-find (every member
 * points at its root; a merge relabels the smaller side), and a round
 * walks the live roots' member lists. The edges that reach full
 * support in a round, the cluster partition and each cluster's parity
 * and boundary contact do not depend on that walk order, so
 * corrections and growth-round counts equal the whole-graph scan's
 * bit for bit (tests/decoders/test_workspace.cc pins this against a
 * reference implementation).
 *
 * The peel is a BFS forest over the fully grown edges, then a
 * leaves-to-roots flip pass. The BFS step is written as a select, but
 * GCC 12 at -O3 compiles its `take` into a conditional jump, and a
 * forced branch-free BFS measured slower (908 vs 852 ns per decode at
 * d = 9, p = 5%). A decode pays for its erasure, not for its
 * graph: the erasure is enumerated ascending from a bitset instead of
 * sorted, and the flip pass rewinds only the erasure's vertices and
 * the edges bordering them, so no buffer is re-initialized per decode.
 *
 * A batch of N inputs runs the scalar core N times: a lane-packed
 * engine that grew many syndromes together measured 0.24x-0.99x of
 * the scalar core at d = 3..9.
 */

#ifndef NISQPP_DECODERS_UNION_FIND_DECODER_HH
#define NISQPP_DECODERS_UNION_FIND_DECODER_HH

#include <cstdint>

#include "common/stats.hh"
#include "decoders/decoder.hh"

namespace nisqpp {

/** Almost-linear-time union-find decoder. */
class UnionFindDecoder : public Decoder
{
  public:
    UnionFindDecoder(const SurfaceLattice &lattice, ErrorType type);

    using Decoder::decodeBatch;
    using Decoder::decodeWindowBatch;

    /**
     * Every input runs the scalar core (growth + peel over the
     * workspace buffers), in order.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     Correction *out, TrialWorkspace &ws) override;

    /**
     * Spacetime union-find over faulty-measurement windows: the same
     * growth + peel on the detection-event graph with unit time-like
     * edges between (t, a) and (t+1, a), one window at a time. Every
     * window of a batch must have the same round count: the decoder
     * caches one spacetime graph.
     */
    void decodeWindowBatch(const SyndromeWindow *const *windows,
                           std::size_t count, Correction *out,
                           TrialWorkspace &ws) override;

    bool windowAware() const override { return true; }

    /** A peeled correction reproduces its syndrome exactly. */
    bool correctionClearsSyndrome() const override { return true; }

    std::string name() const override { return "union-find"; }

    /** Growth rounds used by the last decode (telemetry). */
    int lastGrowthRounds() const { return lastRounds_; }

    /**
     * Emit `decoder.uf.*` work counters accumulated since
     * construction: decode counts, total growth rounds, total peeled
     * correction length, plus a growth-round histogram.
     */
    void exportMetrics(obs::MetricSet &out) const override;

  private:
    struct GraphEdge
    {
        int u;       ///< vertex index (ancilla or virtual boundary)
        int v;
        int dataIdx; ///< data qubit flipped by this edge; -1 time-like
    };

    /**
     * One static decoding graph (2D, or spacetime per window size).
     * Its incidence is one CSR, filled once per graph: vertex v's
     * edges are incEdges[incOff[v]..incOff[v+1]), in ascending edge
     * id, and incNbr[k] is the other end of incidence k's edge.
     */
    struct Graph
    {
        std::vector<GraphEdge> edges;
        std::vector<int> incOff;   ///< numVertices + 1 offsets
        std::vector<int> incEdges; ///< edge ids, grouped by vertex
        std::vector<int> incNbr;   ///< far endpoint per incidence
        int numAncillaVertices = 0; ///< real vertices; boundaries after
        int numVertices = 0;

        /** Fill incOff/incEdges/incNbr from the finished edge list. */
        void buildIncidence();
    };

    /** The 2D graph for @p rounds == 0, else the spacetime graph. */
    const Graph &graphFor(int rounds);

    /**
     * One batch on the graph of @p rounds (0 = 2D): decodeScalar for
     * each input in turn. seedsOf(i, seeds) appends input i's hot
     * vertices to seeds.
     */
    template <typename SeedsOf>
    void decodeGroup(int rounds, std::size_t count, Correction *out,
                     TrialWorkspace &ws, const SeedsOf &seedsOf);

    /**
     * Scalar growth + peel on the graph of @p rounds (0 = 2D) seeded
     * at @p seeds (hot vertices), writing the correction into @p out.
     * Reads and leaves ws's union-find buffers in their neutral state
     * (see TrialWorkspace), growing them only for a larger graph.
     */
    void decodeScalar(int rounds, const std::vector<int> &seeds,
                      TrialWorkspace &ws, Correction &out);

    /**
     * Grow the clusters seeded at @p seeds on @p graph until none is
     * live, setting lastRounds_ (at most @p growthBound). Leaves the
     * fully grown edges, in the order they reached full support, in
     * ws.ufGrown and returns their count.
     */
    std::size_t growClusters(const Graph &graph,
                             const std::vector<int> &seeds,
                             int growthBound, TrialWorkspace &ws);

    /**
     * Peel the erasure that growClusters left in ws into @p out. The
     * erasure is @p seeds plus both ends of the first @p numGrown
     * grown edges. A BFS forest over the fully grown edges
     * (ufSupport == 2) per cluster, rooted at a boundary vertex when
     * available, is peeled from the leaves inward, flipping the tree
     * edge below each hot vertex; the same pass rewinds ws's
     * union-find buffers to their neutral state.
     */
    static void peelErasure(const Graph &graph,
                            const std::vector<int> &seeds,
                            std::size_t numGrown, TrialWorkspace &ws,
                            Correction &out);

    /**
     * Append one ancilla family's spatial edge set to @p graph with
     * real vertices offset by @p base: ancilla-ancilla edges for
     * interior data qubits, private-virtual-boundary edges for
     * boundary data qubits. Shared by the 2D graph (base 0) and each
     * round of the spacetime graph, so the two can never drift.
     */
    static void appendSpatialEdges(const SurfaceLattice &lattice,
                                   ErrorType type, int base,
                                   Graph &graph);

    /** Build (or reuse) the spacetime graph for @p rounds rounds. */
    const Graph &windowGraph(int rounds);

    /** Fold one finished decode (lastRounds_ set) into the counters. */
    void noteDecode(const Correction &corr);

    Graph graph_;       ///< 2D ancilla graph (built once)
    Graph windowGraph_; ///< spacetime graph cache
    int windowGraphRounds_ = 0;
    int lastRounds_ = 0;

    /** Deterministic work counters (see exportMetrics). @{ */
    std::uint64_t decodes_ = 0;
    std::uint64_t windowDecodes_ = 0;
    std::uint64_t growthRoundsTotal_ = 0;
    std::uint64_t peelFlipsTotal_ = 0;
    Histogram roundsHist_{63};
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_UNION_FIND_DECODER_HH
