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
 * Both cores pay for a decode's erasure, not for its graph: they read
 * one CSR incidence per graph, enumerate the erasure ascending by
 * scanning (and rezeroing) an erasure bitset instead of sorting, and
 * end every decode by rewinding only the vertices in its erasure and
 * the edges bordering them, so no buffer is re-initialized per decode.
 *
 * Batches of more than one input run a *lane-packed* variant of the
 * same algorithm: K independent syndromes share one pass over the
 * graph, with per-edge support counters held as two bit-planes (bit l
 * of word e = lane l's support >= 1 / == 2) in the runtime-dispatched
 * simd.hh lane word. Each growth round walks every live lane's odd
 * non-boundary clusters through per-root member lists (spliced O(1) on
 * union, so no per-round re-scan or root lookup is ever needed), marks
 * active vertices in a shared activity plane, then performs ONE
 * word-parallel sweep that saturates support for all lanes at once —
 * over only the edges incident to this round's active vertices, since
 * no other edge's support can change. Per-lane union-find state lives
 * in lane-major arrays that are initialized once per graph and
 * restored via touched-only cleanup after each peel (the erasure
 * vertices are exactly the state a trial dirtied), and the shared
 * bit-planes are rewound edge-by-edge at chunk end from a dirty-edge
 * list. Grown edges are applied in ascending edge order; the cluster
 * partition, parities, boundary flags, support values, sorted erasure
 * and peel forest are all union-order-independent, so every lane's
 * correction, growth-round count and exported counter is bit-identical
 * to a scalar decode of the same syndrome.
 */

#ifndef NISQPP_DECODERS_UNION_FIND_DECODER_HH
#define NISQPP_DECODERS_UNION_FIND_DECODER_HH

#include <cstdint>

#include "common/simd.hh"
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
     * A batch of one runs the scalar core (growth + peel over the
     * workspace buffers); larger batches run the lane-packed engine,
     * up to 8 * sizeof(lane word) syndromes growing their clusters
     * together through shared bit-plane edge sweeps. Every lane's
     * correction and decoder.uf.* counter is bit-identical either way.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     Correction *out, TrialWorkspace &ws) override;

    /**
     * Spacetime union-find over faulty-measurement windows: the same
     * growth + peel on the detection-event graph with unit time-like
     * edges between (t, a) and (t+1, a), chosen scalar or lane-packed
     * by @p count exactly like decodeBatch. Every window of a batch
     * must have the same round count (one spacetime graph per chunk).
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

    /** Lane word width the batch engine was latched to (telemetry). */
    simd::Width batchWidth() const { return width_; }

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
     * Its incidence is one CSR, filled once per graph and read by both
     * the scalar core and the lane engine: vertex v's edges are
     * incEdges[incOff[v]..incOff[v+1]), in ascending edge id.
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

    /**
     * Lane-packed batch state for one lane word type. The shared
     * planes (s1/s2/act) carry one bit per lane; the union-find arrays
     * are lane-major (entry l * numVertices + v) and preserved across
     * chunks by the touched-only cleanup invariant: between trials
     * every lane's slice reads parent[v] == v, meta[v] == its static
     * value (the boundary bit for virtual vertices, zero otherwise),
     * memberNext[v] == -1 and memberTail[v] == v (each vertex is the
     * singleton member list of its own cluster), the shared s1/s2
     * planes are all-zero (rewound from planeDirty each chunk), and
     * the shared peel scratch is all-clear. Keeping the persistent
     * per-lane state down to 13 bytes per vertex — and the peel
     * scratch shared across lanes so it stays cache-hot — is what
     * makes the wide-lane engines win: the per-trial working set is
     * small enough to live in L1/L2 instead of streaming from memory.
     */
    template <typename W>
    struct BatchEngine
    {
        static constexpr int kLanes = static_cast<int>(8 * sizeof(W));

        /** Graph identity the arrays were initialized for. */
        const void *graphKey = nullptr;
        int graphRounds = -1;
        int numVertices = 0;
        int numEdges = 0;
        int lanesReady = 0; ///< lanes whose state obeys the invariant

        std::vector<W> s1;  ///< per edge: lane support >= 1
        std::vector<W> s2;  ///< per edge: lane support == 2 (grown)
        std::vector<W> act; ///< per vertex: lane active this round
        std::vector<char> actMark; ///< act[v] nonzero (cheap test)
        std::vector<int> touched;  ///< vertices with act bits set
        std::vector<char> edgeMark;   ///< edge in dirtyEdges (per round)
        std::vector<int> dirtyEdges;  ///< edges swept this round
        std::vector<char> planeMark;  ///< edge in planeDirty (per chunk)
        std::vector<int> planeDirty;  ///< edges with nonzero s1/s2 bits

        /** @name Lane-major union-find state (13 B/vertex) @{ */
        std::vector<int> parent;
        /// bit0 parity, bit1 boundary contact, bit2 in the lane's
        /// root list, bits 3+ union rank (<= log2 V, fits easily)
        std::vector<unsigned char> meta;
        std::vector<int> memberNext; ///< cluster member list links (-1 end)
        std::vector<int> memberTail; ///< root -> last member of its list
        /** @} */

        /**
         * Per-lane erasure bitset (eraseWords words per lane): bit v
         * set iff vertex v is a seed or a grown-edge endpoint of the
         * lane's current trial. Scanned ascending (and rezeroed) by
         * the peel to enumerate the sorted erasure without a dedup
         * pass or sort; all-zero between trials.
         */
        std::vector<std::uint64_t> laneErasure;
        int eraseWords = 0; ///< (numVertices + 63) / 64

        /** @name Per-graph lane-init templates (memcpy'd per lane) @{ */
        std::vector<int> iotaTemplate;           ///< 0, 1, ..., V-1
        std::vector<unsigned char> metaTemplate; ///< static meta bytes
        /** @} */

        /** @name Per-lane frontier bookkeeping @{ */
        std::vector<std::vector<int>> candidates; ///< seeds per lane
        /**
         * Grown (support == 2) edges per lane, accumulated across the
         * trial's rounds: each round's unions process the suffix past
         * grownDone[l], and the full list — exactly the lane's s2
         * edge set — then marks grownMark for the peel, so the peel
         * BFS never reads the bit-planes.
         */
        std::vector<std::vector<int>> grown;
        std::vector<int> grownDone; ///< per lane: unions applied so far
        std::vector<std::vector<int>> roots; ///< live cluster roots
        std::vector<int> rounds;
        std::vector<char> finished;
        /** @} */

        /**
         * @name Peel scratch, SHARED across lanes (V-sized, so it
         * stays L1-hot while peeling lane after lane). Each lane's
         * peel resets exactly what it set: hot/visited only inside
         * the erasure, parentEdge only for BFS-reached vertices
         * (roots get an explicit -1), so no bulk clears.
         * @{
         */
        std::vector<char> hot;
        std::vector<char> visited;
        std::vector<int> parentEdge;
        std::vector<int> erasure;
        std::vector<int> bfsOrder; ///< BFS queue == visit order (FIFO)
        /**
         * Byte-per-edge membership mark of the lane under peel
         * (grownMark[ed] != 0 iff ed is in the lane's grown / s2
         * set): the BFS walks the graph's CSR and tests this
         * E-byte array — a few L1 lines — instead of extracting lane
         * bits from the 64-byte-strided s2 plane. All-zero between
         * lanes (reset from the lane's grown list).
         */
        std::vector<char> grownMark;
        /** @} */
    };

    /** The 2D graph for @p rounds == 0, else the spacetime graph. */
    const Graph &graphFor(int rounds);

    /**
     * One batch on the graph of @p rounds (0 = 2D): a batch of one
     * runs decodeScalar, larger ones the latched-width lane engine.
     * seedsOf(i, seeds) appends input i's hot vertices to seeds.
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

    /** The peel's V-sized scratch (all-clear inside the erasure). */
    struct PeelScratch
    {
        char *hot;
        char *visited;
        int *parentEdge; ///< written before read, never reset
        std::vector<int> *bfsOrder;
    };

    /**
     * Peel @p erasure (ascending) into @p out, shared by both cores:
     * a BFS forest over the fully grown edges (isGrown(edge id)) per
     * cluster, rooted at a boundary vertex when available, then peeled
     * from the leaves inward, flipping the tree edge below each hot
     * vertex. hot and visited are only written inside the erasure.
     */
    template <typename IsGrown>
    static void peelErasure(const Graph &graph,
                            const std::vector<int> &erasure,
                            const IsGrown &isGrown, PeelScratch s,
                            Correction &out);

    /** (Re)initialize @p e for @p graph and at least @p lanes lanes. */
    template <typename W>
    void ensureEngine(BatchEngine<W> &e, const Graph &graph,
                      int graphRounds, std::size_t lanes);

    /**
     * Decode one chunk of @p lanes pre-seeded lanes (candidates[l] =
     * seeds of trial base + l) on @p graph, writing corrections into
     * out[base..base+lanes) and folding each lane into the work
     * counters in ascending lane order.
     */
    template <typename W>
    void runChunk(const Graph &graph, int growthBound, BatchEngine<W> &e,
                  std::size_t base, std::size_t lanes, Correction *out);

    /** Chunked lane-engine loop over the graph of @p rounds. */
    template <typename W, typename SeedsOf>
    void runBatch(BatchEngine<W> &e, int rounds, std::size_t count,
                  Correction *out, const SeedsOf &seedsOf);

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

    /** Dispatch width latched at construction (simd::activeWidth). */
    simd::Width width_;
    BatchEngine<simd::W64> engine64_;
    BatchEngine<simd::W256> engine256_;
    BatchEngine<simd::W512> engine512_;

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
