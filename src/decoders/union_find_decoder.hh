/**
 * @file
 * Union-Find decoder (Delfosse & Nickerson [9], one of the paper's
 * approximate-baseline comparisons in Fig. 11). Odd clusters grow by
 * half-edges on the ancilla graph, merge through a union-find structure
 * tracking parity and boundary contact, and the final erasure is peeled
 * to a correction.
 *
 * The growth/peel core is graph-agnostic: the space-only decode runs it
 * on the 2D ancilla graph, and decodeWindowBatch runs the identical
 * algorithm on the (rounds x ancilla) spacetime graph whose time-like
 * edges carry no data qubit — they absorb measurement flips — so the
 * peeled correction is the XOR of the spatial edges only.
 *
 * A decode pays for its erasure, not for its graph: it reads one CSR
 * incidence per graph, enumerates the erasure ascending by scanning
 * (and rezeroing) an erasure bitset instead of sorting, and ends by
 * rewinding only the vertices in its erasure and the edges bordering
 * them, so no buffer is re-initialized per decode.
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
     * id.
     */
    struct Graph
    {
        std::vector<GraphEdge> edges;
        std::vector<int> incOff;   ///< numVertices + 1 offsets
        std::vector<int> incEdges; ///< edge ids, grouped by vertex
        int numAncillaVertices = 0; ///< real vertices; boundaries after
        int numVertices = 0;

        /** Fill incOff/incEdges from the finished edge list. */
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
     * Peel @p erasure (ascending) into @p out: a BFS forest over the
     * fully grown edges (support[edge id] >= 2) per cluster, rooted at
     * a boundary vertex when available, then peeled from the leaves
     * inward, flipping the tree edge below each hot vertex. ws's hot
     * and visited bytes are only written inside the erasure.
     */
    static void peelErasure(const Graph &graph,
                            const std::vector<int> &erasure,
                            const char *support, TrialWorkspace &ws,
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
