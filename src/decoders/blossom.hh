/**
 * @file
 * Exact minimum-weight perfect matching on dense general graphs via the
 * primal-dual blossom algorithm, O(n^3). This is the engine behind the
 * MWPM baseline decoder (paper Section IV, [16], [17], [21]).
 *
 * The solver internally runs *maximum*-weight matching on transformed
 * weights 2*(C - w) with C > max(w); on a complete even-order graph the
 * maximum-weight matching under strictly positive weights is perfect, so
 * the transform yields the minimum-weight perfect matching. Weights are
 * doubled to keep all dual variables integral.
 */

#ifndef NISQPP_DECODERS_BLOSSOM_HH
#define NISQPP_DECODERS_BLOSSOM_HH

#include <cstdint>
#include <vector>

namespace nisqpp {

/**
 * Dense blossom matcher. Build with the number of vertices, set weights,
 * then solve. Vertex indices are 0-based externally. A matcher is
 * reusable: reset(n) rebinds it to a new instance size, reusing the
 * internal arrays whenever they are already large enough (the trial
 * workspace keeps one matcher alive across all decodes of a thread).
 */
class BlossomMatcher
{
  public:
    /** Edge weights are long integers; "absent" edges use kAbsent. */
    static constexpr long kAbsent = -1;

    /** Empty matcher; reset() before use. */
    BlossomMatcher() = default;

    /** @param n Number of vertices (must be even for a perfect matching). */
    explicit BlossomMatcher(int n);

    /**
     * Rebind to @p n vertices with all edges absent, growing the
     * internal arrays only when @p n exceeds every previous size.
     */
    void reset(int n);

    /** Set the weight of undirected edge (u, v); kAbsent removes it. */
    void setWeight(int u, int v, long w);

    /**
     * Solve for the minimum-weight perfect matching.
     *
     * @param[out] mate mate[v] = partner of v.
     * @return Total weight of the matching.
     * @pre A perfect matching exists (the decoding construction always
     *      builds complete graphs). Panics otherwise.
     */
    long solve(std::vector<int> &mate);

    /** Augmenting-path count of the most recent solve (telemetry). */
    std::int64_t lastAugmentations() const { return lastAugments_; }

  private:
    struct Edge
    {
        int u = 0;
        int v = 0;
        long w = 0;
    };

    long eDelta(const Edge &e) const;
    void updateSlack(int u, int x);
    void setSlack(int x);
    void qPush(int x);
    void setSt(int x, int b);
    int getPr(int b, int xr);
    void setMatch(int u, int v);
    void augment(int u, int v);
    int getLca(int u, int v);
    void addBlossom(int u, int lca, int v);
    void expandBlossom(int b);
    bool onFoundEdge(const Edge &e);
    bool matchingPhase();

    int n_ = 0;      ///< real vertices (1-based internally)
    int nx_ = 0;     ///< current id bound including blossoms
    int cap_ = 0;    ///< maximum vertex id (n + n/2 + 1)
    int alloc_ = -1; ///< largest cap_ the arrays were ever sized for
    std::vector<std::vector<Edge>> g_;
    std::vector<long> lab_;
    std::vector<int> match_, slack_, st_, pa_, s_;
    // 64-bit visit stamps: one matcher now lives in a per-thread
    // workspace for the whole run, and getLca() bumps the stamp on
    // every call — a 32-bit counter could wrap after hours of decodes
    // and alias a stale entry.
    std::vector<std::int64_t> vis_;
    std::vector<std::vector<int>> flowerFrom_;
    std::vector<std::vector<int>> flower_;
    std::vector<int> queue_;
    std::size_t qHead_ = 0;
    std::int64_t visitStamp_ = 0;
    std::int64_t augments_ = 0;     ///< lifetime augment() count
    std::int64_t lastAugments_ = 0; ///< augments of the last solve()
    std::vector<std::vector<long>> userWeight_;
};

} // namespace nisqpp

#endif // NISQPP_DECODERS_BLOSSOM_HH
