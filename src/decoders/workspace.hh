/**
 * @file
 * Per-thread trial workspace: every scratch buffer a decoder needs
 * during one decode, owned by the Monte Carlo driver and reused across
 * the thousands of trials in an engine shard. The engine keeps one
 * workspace per worker thread; decoders borrow from it through the
 * `ws` argument of Decoder::decodeBatch / decodeWindowBatch, so
 * steady-state decoding performs no heap allocation at all (buffers
 * grow to the high-water mark of the hardest syndrome and stay there).
 * tests/decoders/test_alloc_free.cc pins that at zero allocations for
 * every decoder family on the scalar, lane-batch and window paths.
 *
 * Buffers are grouped by consumer but deliberately shared across
 * decoder *instances* (the Z and X decoders of a depolarizing run, or
 * different distances in one sweep): every user assign()s or clear()s
 * what it borrows before reading it — except the union-find buffers
 * below, which UnionFindDecoder keeps in one neutral state between
 * decodes and rewinds itself (see there).
 */

#ifndef NISQPP_DECODERS_WORKSPACE_HH
#define NISQPP_DECODERS_WORKSPACE_HH

#include <cstdint>
#include <vector>

#include "decoders/blossom.hh"
#include "decoders/decoder.hh"
#include "decoders/matching_graph.hh"

namespace nisqpp {

/** One weighted candidate edge of the greedy matcher. */
struct WeightedEdge
{
    int w;
    int i;
    int j; ///< -1 encodes the boundary edge of node i
};

/** Reusable scratch for one thread's decode loop. */
class TrialWorkspace
{
  public:
    /**
     * Output of the scalar conveniences Decoder::decode(syndrome, ws)
     * and decodeWindow (cleared, not shrunk, per decode).
     */
    Correction correction;

    /**
     * Output of the workspace forms of Decoder::decodeBatch and
     * decodeWindowBatch: entry i holds the correction of input i of
     * the last batch. Sized to the batch high-water mark; capacities
     * are kept across batches.
     */
    std::vector<Correction> laneCorrections;

    /** @name Matching-based decoders (MWPM, greedy) @{ */
    MatchingGraph graph;           ///< rebuilt per decode, capacity kept
    BlossomMatcher matcher;        ///< reset per decode, arrays kept
    std::vector<int> mate;         ///< blossom output
    std::vector<WeightedEdge> greedyEdges;
    std::vector<char> matched;
    /** @} */

    /**
     * @name Union-Find decoder
     * Not assign()ed per decode: between decodes the per-vertex and
     * per-edge buffers hold one neutral state that fits every graph —
     * every vertex its own one-member cluster (ufParent[v] == v,
     * ufNext[v] == v, ufSize[v] == 1), ufCluster, hot and visited
     * zero; ufSupport and ufErasureBits all-zero. The decoder grows
     * them (neutral) only when a larger graph arrives, and each decode
     * rewinds just the entries its erasure touched. The scratch
     * buffers after them are written before they are read. Any other
     * user must leave all of them be.
     * @{
     */
    std::vector<int> ufSeeds;    ///< hot vertex ids (2D or spacetime)
    std::vector<int> ufParent;   ///< quick-find: every member's root
    std::vector<int> ufNext;     ///< circular cluster member list
    std::vector<int> ufSize;     ///< members, at roots
    std::vector<char> ufCluster; ///< odd/boundary/listed bits, at roots
    std::vector<char> ufSupport; ///< per edge: half-edges grown (0-2)
    std::vector<char> ufHot;
    std::vector<char> ufVisited;
    std::vector<std::uint64_t> ufErasureBits; ///< bit per vertex
    std::vector<int> ufLive;       ///< live cluster roots of a round
    std::vector<int> ufGrown;      ///< grown edges + 1, then the erasure
    std::vector<int> ufParentEdge; ///< BFS tree edge; -1 at roots
    std::vector<int> ufBfsOrder;   ///< BFS FIFO == visit order, + 1
    std::vector<int> ufFlips;      ///< peeled data flips
    /** @} */
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_WORKSPACE_HH
