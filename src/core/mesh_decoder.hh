/**
 * @file
 * Cycle-level simulator of the SFQ mesh decoder — the paper's core
 * contribution (Sections V and VI). One decoder module per lattice site
 * plus a ring of boundary modules; grow, pair-request, pair-grant and
 * pair signals propagate one module per cycle as persistent pulse trains.
 *
 * Protocol (final design):
 *  1. hot modules emit grow rays in all four directions;
 *  2. modules where two rays meet emit pair-requests back along both
 *     reversed directions;
 *  3. a hot module grants exactly one request (latched);
 *  4. where two grant trains meet, single pair pulses are emitted toward
 *     both endpoints, marking every traversed module as chain member;
 *  5. a pair pulse reaching a hot module clears its latch and fires the
 *     global reset (pair signals are exempt so the farther leg finishes);
 *  6. boundary modules answer grow with pair-request and grant with pair.
 *
 * The mesh state is bit-packed: each cycle is a handful of bitwise
 * operations per machine word. A mesh row spans only 2d + 1 <= 19
 * columns for the distances the experiments run, so one row per 64-bit
 * word would leave most of every word empty. Both engines fill it.
 *
 * Batches of more than one syndrome use *lane packing*: they simulate
 * L independent Monte Carlo trials per word, each in its own span-wide
 * lane, one mesh row per word. The lane word width is chosen at
 * runtime (simd::activeWidth(), latched at construction) from a plain
 * 64-bit word and 256/512-bit GNU vectors, giving 64/span sub-lanes
 * per 64-bit element, capped at kMaxLanes: at v512 that is 24 lanes at
 * d = 9, 32 at d = 7, 40 at d = 5 and 64 at d = 3. The per-cycle
 * shift/AND/OR/XOR plane updates are shared across lanes — lane-guard
 * masks drop each lane's edge column before an east/west shift,
 * exactly the bits the valid mask would kill after an unpacked shift.
 * Lane control runs on whole words and 64-bit lane masks too: reset
 * windows are a ring of per-cycle reset masks, drained pair rounds one
 * whole-word compare per sub-lane position, and only lanes that can
 * change this cycle (no hot module left, idle with work maybe pending,
 * or past the earliest cycle-cap or quiescence deadline) are visited
 * between steps, so diverging trials freeze independently at no
 * per-lane cost per cycle. Because every piece of per-lane control
 * state is relative to the lane's own start cycle, a lane that freezes
 * is immediately *refilled* with the next pending trial of the batch:
 * lanes never idle waiting for a slow sibling, and the amortized cost
 * per trial is one L-th of a mesh step per cycle.
 *
 * The same engine runs independent lifetimes (decodeLifetimes): a
 * lane that frees takes the next pending round of any lifetime, so no
 * lane waits for a slow sibling's round. The 256/512-bit engines,
 * packed and one-lane alike, are compiled twice: at the baseline ISA,
 * and in units built with -mavx2 / -mavx512f (mesh_lanes_avx2.cc,
 * mesh_lanes_avx512.cc). A decoder latches the native build at
 * construction when the CPU runs it (simd::nativeEngine) and the
 * portable one otherwise.
 *
 * A batch of one (a lone lifetime, a mesh window, and every round of
 * the tiered stream, which depends on the previous correction) has a
 * single lane and lays it out as horizontal *strips* instead, on the
 * same latched word: the span mesh rows are cut into k strips of h
 * rows, strip j at bit offset j * span, and the h strip rows run across
 * the word's E elements, strip row s in element s % E of word s / E.
 * h is ceil(span / min(span, 64 / span)) rounded up to a multiple of E
 * and k = ceil(span / h), so a plane is h / E words: at d = 9 (span
 * 19) 7 words of 64 bits, 2 of 256 or 1 of 512, instead of 19 rows.
 * Edge guards work per strip like the lane guards. The north/south
 * neighbour reads shift by one element across words
 * (simd::nextElems/prevElems) and continue across strip ends with a
 * span-wide shift. Padding rows of a short last strip have empty
 * masks. Lattices wider than 32 columns are a single strip.
 *
 * Every trial's corrections and telemetry are bit-identical whichever
 * engine, width, build or layout steps it.
 */

#ifndef NISQPP_CORE_MESH_DECODER_HH
#define NISQPP_CORE_MESH_DECODER_HH

#include <array>
#include <cstdint>
#include <new>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "core/mesh_config.hh"
#include "core/mesh_stats.hh"
#include "core/module_logic.hh"
#include "decoders/decoder.hh"

namespace nisqpp {

/**
 * Source and sink of MeshDecoder::decodeLifetimes: hands out the
 * pending round of some lifetime and takes back each finished decode,
 * after which that lifetime's next round may become pending.
 */
class LifetimeFeed
{
  public:
    /**
     * The next pending syndrome and its lifetime; false when no round
     * is pending right now. A false return must stay false until
     * finished() is next called: the decoder asks again only after a
     * decode finishes. The syndrome must stay unchanged until finished() takes back that
     * lifetime's decode: the decoder may read it after other calls
     * into the feed.
     */
    virtual bool next(const Syndrome *&syndrome, std::size_t &lifetime) = 0;

    /** The decode of @p lifetime's pending round finished. */
    virtual void finished(std::size_t lifetime,
                          const Correction &correction,
                          const MeshDecodeStats &stats) = 0;

  protected:
    ~LifetimeFeed() = default;
};

/**
 * The SFQ mesh decoder. Implements the Decoder interface so the Monte
 * Carlo harness can drive it interchangeably with the software baselines.
 */
class MeshDecoder : public Decoder
{
  public:
    /** Largest lane count any batch geometry uses (v512 at d = 3). */
    static constexpr int kMaxLanes = 64;

    MeshDecoder(const SurfaceLattice &lattice, ErrorType type,
                const MeshConfig &config = MeshConfig::finalDesign());

    using Decoder::decodeBatch;

    /**
     * A batch of one steps the one-lane strip engine; larger batches
     * run the lane-packed engine: up to batchLanes() syndromes
     * advance through the mesh planes together, one lane each, and
     * every freed lane is refilled from the remaining batch, so
     * @p count may (and for throughput should) exceed batchLanes().
     * Corrections land in out[0..count), per-lane telemetry in
     * meshStats(lane) — both bit-identical across the two engines.
     */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     Correction *out, TrialWorkspace &ws) override;

    const MeshDecodeStats *meshStats(std::size_t lane = 0) const override;

    /**
     * Run the packed engine as a lifetime pump until @p feed has no
     * round left: every lane that frees takes the feed's next pending
     * round, so batchLanes() lifetimes keep every lane busy across
     * rounds. Corrections and telemetry are bit-identical to decoding
     * each round alone, and every `decoder.mesh.*` counter is a sum of
     * the MeshDecodeStats handed back, so lifetimes sharing the
     * decoder can tally their own work.
     */
    void decodeLifetimes(LifetimeFeed &feed);

    /**
     * Emit `decoder.mesh.*` work counters accumulated since
     * construction (MeshWorkCounters::exportTo): decode counts, total
     * mesh cycles/pairings/resets, and the cap
     * (`decoder.mesh.cycles_capped`) and quiescence exit counts.
     * Scalar and batched decodes accumulate identically.
     */
    void exportMetrics(obs::MetricSet &out) const override;

    std::string name() const override
    {
        return "sfq-mesh[" + config_.label() + "]";
    }

    /** Telemetry of the most recent decode (lane 0 of a batch). */
    const MeshDecodeStats &lastStats() const { return batchStats_[0]; }

    /**
     * Trials the batch engine steps concurrently: elements(lane word)
     * x (64 / span), capped at kMaxLanes.
     */
    int batchLanes() const { return batchLanes_; }

    /**
     * Lane word width both engines were latched to (telemetry): the
     * packed engine's and the one-lane strip engine's.
     */
    simd::Width batchWidth() const { return width_; }

    /**
     * Whether the engines run their native-ISA build (latched with the
     * width; see simd::nativeEngine).
     */
    bool batchNative() const { return native_; }

    /**
     * Lane words per mesh plane of the one-lane strip engine: at d = 9
     * 7 at the 64-bit word, 2 at v256 and 1 at v512.
     */
    int stripWords() const;

    /** Hard cap on simulated cycles per decode. */
    int cycleCap() const { return cycleCap_; }

    /** No-progress window before declaring quiescence. */
    int quiescenceWindow() const { return quiescence_; }

    /**
     * Override the cycle cap and quiescence window (tests only: forces
     * the cap/quiescence exits on tame syndromes so lane freezing can
     * be exercised deterministically). Applies to scalar and batched
     * decodes alike. Both limits must be positive: a non-positive cap
     * or window would make every decode exit instantly, which is
     * indistinguishable from (and has been mistaken for) a configured
     * quiescence test — so it hard-errors even in release builds.
     */
    void
    setLimitsForTest(int cycle_cap, int quiescence_window)
    {
        NISQPP_DCHECK(cycle_cap > 0 && quiescence_window > 0,
                      "MeshDecoder::setLimitsForTest: limits must be "
                      "positive");
        require(cycle_cap > 0 && quiescence_window > 0,
                "MeshDecoder::setLimitsForTest: cycle cap and "
                "quiescence window must be positive");
        cycleCap_ = cycle_cap;
        quiescence_ = quiescence_window;
    }

  private:
    /** Where a physical mesh row lives inside its lane. */
    struct RowSlot
    {
        int word;  ///< plane word index
        int elem;  ///< element of the word, relative to the lane's
        int shift; ///< bit offset of its strip within the lane
    };

    /**
     * Allocator of lane-word planes, aligned to the word's size. A GNU
     * vector's alignof follows the ISA its unit is compiled for (16
     * bytes at the baseline, the full width under -mavx2/-mavx512f), so
     * planes the generic unit allocates must already meet the native
     * units' alignment. For the same reason every lane word held in a
     * LaneEngine is alignas(sizeof(W)): the struct then has one layout
     * in every unit.
     */
    template <typename W>
    struct WordAllocator
    {
        using value_type = W;

        WordAllocator() = default;
        template <typename U>
        WordAllocator(const WordAllocator<U> &)
        {
        }

        W *
        allocate(std::size_t n)
        {
            return static_cast<W *>(::operator new(
                n * sizeof(W), std::align_val_t{sizeof(W)}));
        }

        void
        deallocate(W *p, std::size_t n)
        {
            ::operator delete(p, n * sizeof(W),
                              std::align_val_t{sizeof(W)});
        }

        bool operator==(const WordAllocator &) const = default;
    };

    /**
     * Everything the stepping core needs for one lane layout: the lane
     * geometry (masks placed into every lane of every element, shift
     * guards), the mesh planes, per-step scratch and the per-lane
     * control state. Each width has two: the one-lane engine serves
     * batches of one with a single lane *stacked* into strips across
     * the word's elements, and the packed engine packs batchLanes()
     * trials with one mesh row per word. Both run the exact same
     * (templated) stepping code. All per-lane control state is
     * *relative* to the lane's own start cycle, which is what lets
     * decodeLanes() refill a freed lane with the next pending trial
     * mid-flight.
     *
     * Every plane is a run of `rows` words inside one word-aligned
     * allocation, so an engine is not copyable.
     */
    template <typename W>
    struct LaneEngine
    {
        using Planes = DirRow<W *>;

        LaneEngine() = default;
        LaneEngine(const LaneEngine &) = delete;
        LaneEngine &operator=(const LaneEngine &) = delete;

        int lanes = 1;
        int perElem = 1; ///< sub-lanes per 64-bit element (64 / span)
        int rows = 0;    ///< words per plane (< span when stacked)
        /**
         * One lane whose strip rows run across the elements. Its lane
         * owns every bit of its words: the bits outside the mesh stay
         * zero, so its lane masks are whole words.
         */
        bool stacked = false;
        alignas(sizeof(W)) W guardE{}; ///< cleared before << 1 (per strip)
        alignas(sizeof(W)) W guardW{}; ///< cleared before >> 1
        W *interior = nullptr; ///< replicated row masks
        W *bnd = nullptr;
        W *valid = nullptr;
        /** Lane address: element index + sub-lane mask/base inside it. */
        std::array<int, kMaxLanes> laneElem{};
        std::array<std::uint64_t, kMaxLanes> laneSub{};
        std::array<int, kMaxLanes> laneBase{};
        /** Sub-lane of each bit of an element (bit / span). */
        std::array<std::uint8_t, 64> subOf{};
        /**
         * perElem words: sub-lane j's mask in every element that holds
         * a lane j (packed engine only).
         */
        W *subLane = nullptr;

        // Per-decode mesh state, shared by every lane. The signal
        // planes hold *emissions*: `g`/`rq`/`gr`/`pr` keep the previous
        // cycle's, and each cycle derives its shifted inputs from them
        // on the fly, collects this cycle's in `gOut`... and swaps the
        // buffers at the end of the step (stepLanes).
        Planes g{}, rq{}, gr{}, pr{}; ///< last cycle's emitted signals
        Planes gOut{}, rqOut{}, grOut{}, prOut{}; ///< this cycle's
        Planes grantLatch{}; ///< hot modules' grant choice
        W *formed = nullptr; ///< sticky "this module formed a pair"
        W *fired = nullptr;  ///< cleared endpoints still absorbing
        W *hot = nullptr;
        W *chain = nullptr;
        W *fire = nullptr; ///< per-step scratch (no allocation)

        // Per-lane control state: diverging lanes freeze independently.
        // Lane sets are 64-bit masks, bit l for lane l.
        std::uint64_t busy = 0; ///< lanes holding a trial
        std::uint64_t cold = 0; ///< busy lanes with no hot module left
        std::array<std::int64_t, kMaxLanes> lastFire{};
        std::array<int, kMaxLanes> hotCount{};
        /**
         * Ring of kMeshResetCycles lane-word masks: slot c %
         * kMeshResetCycles holds the lanes whose global reset fired at
         * cycle c. A lane is inside its reset window while one of the
         * previous kMeshResetCycles - 1 slots holds it.
         */
        W *resetRing = nullptr;
        /** Steps since decodeLanes began (a lifetime pump runs long). */
        std::int64_t cycle = 0;
        /** Pair-plane occupancy after the last step. */
        alignas(sizeof(W)) W prOcc{};

        /** Storage of every plane above (buildEngine). */
        std::vector<W, WordAllocator<W>> block;

        /** Placement of each physical mesh row (span <= 62). */
        std::array<RowSlot, 64> slot{};
    };

    /** An engine of the latched width, or none yet. */
    using AnyEngine =
        std::variant<std::monostate, LaneEngine<simd::W64>,
                     LaneEngine<simd::W256>, LaneEngine<simd::W512>>;

    template <typename W>
    static int laneCount(int span, int max_lanes);
    template <typename W>
    void buildEngine(LaneEngine<W> &e, int max_lanes) const;
    /**
     * @p slot's engine (one_ or packed_), built on first use with one
     * lane or with kMaxLanes.
     */
    template <typename W>
    LaneEngine<W> &engine(AnyEngine &slot);
    /*
     * The lane engine proper: decodeLanes drives stepLanes and
     * finishLane, defined in mesh_lanes.hh. Isa is the build's tag
     * (simd::Portable, Avx2 or Avx512): the portable build of every word
     * is instantiated in mesh_decoder.cc, and each native build only in
     * its own unit compiled for that ISA, so its symbols carry the tag.
     * They take the engine and the source by reference: no lane word
     * crosses a unit boundary by value, whose ABI differs per ISA.
     */
    /**
     * One mesh cycle of every lane, double-buffered: this cycle's
     * emissions go to the `*Out` planes, swapped in at the end.
     * Stacked is LaneEngine::stacked.
     */
    template <typename Isa, bool Stacked, typename W>
    void stepLanes(LaneEngine<W> &e, MeshDecodeStats *const *laneStats);
    template <typename Isa, typename W>
    void finishLane(LaneEngine<W> &e, int lane, Correction &out,
                    MeshDecodeStats &stats);
    /**
     * Step @p e until @p source runs dry. Source hands trials to free
     * lanes (pull) and takes back finished ones (retire); see
     * BatchSource and FeedSource.
     */
    template <typename Isa, typename W, typename Source>
    void decodeLanes(LaneEngine<W> &e, Source &source);
    struct BatchSource;
    struct FeedSource;
    /*
     * Per-trial bookkeeping of the lane engine, out of line in the
     * generic unit so the native units compile none of the inline
     * helpers it needs (require, Syndrome::weight, std::vector).
     */
    /**
     * Start a trial of @p syn: check its type, clear @p out and
     * @p stats, and return its weight (hot syndrome bits).
     */
    int admit(const Syndrome &syn, Correction &out,
              MeshDecodeStats &stats) const;
    /**
     * Append the data-qubit flips of mesh row @p r + 1's chain bits
     * @p row (bit c + 1 is column c) to @p out.
     */
    void harvestRow(int r, std::uint64_t row, Correction &out) const;
    /**
     * Call @p f with the latched build's ISA tag and @p slot's engine
     * of the latched width (see engine()).
     */
    template <typename F>
    void withEngine(AnyEngine &slot, F &&f);

    MeshConfig config_;
    int span_;      ///< grid size + 2 (boundary ring included)
    int cycleCap_;
    int quiescence_;

    /** Dispatch width latched at construction (simd::activeWidth). */
    simd::Width width_;
    /** Whether the width's native build runs (simd::nativeEngine). */
    bool native_;

    /** The one-lane strip engine (batches of one), built eagerly. */
    AnyEngine one_;
    /**
     * The packed-lane engine, built by the first multi-lane batch, so
     * decoders that only see batches of one never pay for it.
     */
    AnyEngine packed_;

    /** Lane count of the latched batch engine. */
    int batchLanes_ = 1;

    /** decodeLifetimes' per-lane corrections, handed to the feed. */
    std::vector<Correction> feedOut_;

    /**
     * Telemetry of the last decode, one entry per lane decoded (after
     * decodeLifetimes: each lane's last decode).
     */
    std::vector<MeshDecodeStats> batchStats_{1};

    /** Deterministic work counters (see exportMetrics). */
    MeshWorkCounters work_;
};

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_DECODER_HH
