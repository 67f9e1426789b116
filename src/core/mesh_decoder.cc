#include "core/mesh_decoder.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

namespace {

constexpr int dN = static_cast<int>(Dir::N);
constexpr int dE = static_cast<int>(Dir::E);
constexpr int dS = static_cast<int>(Dir::S);
constexpr int dW = static_cast<int>(Dir::W);

/// kRev[d] = index of the reversed travel direction.
constexpr int kRev[kNumDirs] = {dS, dW, dN, dE};

// Element accessors bridging the lane word types live in common/simd.hh
// so the union-find batch engine shares them.
using simd::andElem;
using simd::anyW;
using simd::elementsOf;
using simd::elemOf;
using simd::orElem;

/**
 * Working word of stepChunks: 128 bits of a wide lane word, read and
 * written in place through a W128 pointer. GCC gives vector types the
 * alias set of their element type, so such a view of a W256/W512
 * plane is well defined.
 */
using W128 __attribute__((vector_size(16))) = std::uint64_t;

} // namespace

template <typename W>
int
MeshDecoder::laneCount(int span, int max_lanes)
{
    const int per_elem = std::max(1, std::min(max_lanes, 64 / span));
    return std::min(max_lanes, per_elem * elementsOf<W>());
}

template <typename W>
void
MeshDecoder::buildEngine(LaneEngine<W> &e, int max_lanes) const
{
    const int n = lattice().gridSize();
    const int per_elem =
        std::max(1, std::min(max_lanes, 64 / span_));
    e.perElem = per_elem;
    e.lanes = laneCount<W>(span_, max_lanes);
    // A lone lane would leave most of its word empty, so it stacks the
    // mesh as horizontal strips instead: strip j holds rows
    // [j*rows, (j+1)*rows) at bit offset j*span. Packed lanes keep one
    // mesh row per word (a single strip).
    const int strips = e.lanes == 1 ? std::min(span_, 64 / span_) : 1;
    e.rows = (span_ + strips - 1) / strips;
    const int lane_bits = strips * span_;
    const std::uint64_t low = lane_bits >= 64
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << lane_bits) - 1;

    // Lane addresses: lanes fill element 0's sub-lanes first, then
    // element 1's, ... so the lanes of one element are contiguous.
    for (int l = 0; l < e.lanes; ++l) {
        e.laneElem[l] = l / per_elem;
        e.laneBase[l] = (l % per_elem) * span_;
        e.laneSub[l] = low << e.laneBase[l];
    }

    // Single-lane row masks, then placed into every lane.
    std::vector<std::uint64_t> interior(span_, 0), bnd(span_, 0);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            interior[r + 1] |= std::uint64_t{1} << (c + 1);

    if (config_.boundaryMechanism) {
        // Without the request-grant arbitration both rings would
        // answer the same grow rays with pair pulses, composing two
        // boundary chains into a full crossing; the non-arbitrated
        // variant therefore hardwires a single responding side (the
        // final design lets the grant pick either side).
        const bool both_sides = config_.equidistantMechanism;
        if (type() == ErrorType::Z) {
            // Z-error chains terminate west/east; ring modules sit next
            // to the boundary data qubits (even interior rows).
            for (int r = 0; r < n; r += 2) {
                bnd[r + 1] |= std::uint64_t{1} << 0;
                if (both_sides)
                    bnd[r + 1] |= std::uint64_t{1} << (n + 1);
            }
        } else {
            for (int c = 0; c < n; c += 2) {
                bnd[0] |= std::uint64_t{1} << (c + 1);
                if (both_sides)
                    bnd[span_ - 1] |= std::uint64_t{1} << (c + 1);
            }
        }
    }

    // Padding rows of a short last strip keep all-zero masks.
    e.interior.assign(e.rows, W{});
    e.bnd.assign(e.rows, W{});
    e.valid.assign(e.rows, W{});
    W edgeE{}, edgeW{};
    for (int l = 0; l < e.lanes; ++l) {
        const int el = e.laneElem[l];
        const int base = e.laneBase[l];
        for (int r = 0; r < span_; ++r) {
            const RowSlot at = e.slot(r, span_);
            orElem(e.interior[at.word], el,
                   interior[r] << (base + at.shift));
            orElem(e.bnd[at.word], el, bnd[r] << (base + at.shift));
        }
        // Shift guards: drop each strip's edge column before an
        // east/west shift — exactly the bits the valid mask would kill
        // after an unguarded scalar shift, so guarded shifts are
        // trajectory-neutral while keeping lanes and strips isolated.
        for (int j = 0; j < strips; ++j) {
            const int off = base + j * span_;
            orElem(edgeE, el, std::uint64_t{1} << (off + span_ - 1));
            orElem(edgeW, el, std::uint64_t{1} << off);
        }
    }
    for (int r = 0; r < e.rows; ++r)
        e.valid[r] = e.interior[r] | e.bnd[r];
    e.guardE = ~edgeE;
    e.guardW = ~edgeW;

    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (auto &plane : *planes)
            plane.assign(e.rows, W{});
    // Only one-word engines double-buffer (stepLanes); wide ones step
    // in place (stepChunks).
    if constexpr (sizeof(W) == sizeof(std::uint64_t))
        for (auto *planes : {&e.gOut, &e.rqOut, &e.grOut, &e.prOut})
            for (auto &plane : *planes)
                plane.assign(e.rows, W{});
    e.formed.assign(e.rows, W{});
    e.fired.assign(e.rows, W{});
    e.hot.assign(e.rows, W{});
    e.chain.assign(e.rows, W{});
    e.fire.assign(e.rows, W{});
}

MeshDecoder::MeshDecoder(const SurfaceLattice &lattice, ErrorType type,
                         const MeshConfig &config)
    : Decoder(lattice, type), config_(config),
      span_(lattice.gridSize() + 2), width_(simd::activeWidth())
{
    require(span_ <= 62, "MeshDecoder: lattice too wide for 64-bit rows");
    cycleCap_ = 128 * span_;
    quiescence_ = 3 * span_ + 10;
    buildEngine(scalar_, 1);
    // Only the latched width's batch engine is ever built (lazily, see
    // packedEngine): lane results are indexed by trial and identical
    // across widths, so the choice only moves throughput.
    switch (width_) {
      case simd::Width::Scalar:
        batchLanes_ = laneCount<simd::W64>(span_, kMaxLanes);
        break;
      case simd::Width::V256:
        batchLanes_ = laneCount<simd::W256>(span_, kMaxLanes);
        break;
      case simd::Width::V512:
        batchLanes_ = laneCount<simd::W512>(span_, kMaxLanes);
        break;
    }
}

template <typename W>
MeshDecoder::LaneEngine<W> &
MeshDecoder::packedEngine(LaneEngine<W> &e)
{
    if (e.rows == 0)
        buildEngine(e, kMaxLanes);
    return e;
}

template <typename W>
void
MeshDecoder::stepLanes(LaneEngine<W> &e,
                       MeshDecodeStats *const *laneStats)
{
    // Lanes inside their reset window at cycle entry: grow emission is
    // blocked there, and grow/request/grant outputs are cleared again
    // below unless the lane fires this very cycle.
    W inReset{};
    for (int l = 0; l < e.lanes; ++l)
        if (e.resetCountdown[l] > 0)
            orElem(inReset, e.laneElem[l], e.laneSub[l]);

    W fire_any{};
    const W guardE = e.guardE, guardW = e.guardW;

    // The planes hold last cycle's *emissions*; each row derives the
    // shifted inputs on the fly (a signal traveling East into row r is
    // last cycle's East emission of the same row, one column over),
    // saving a full materialization pass per plane per cycle.
    const auto inE = [&](const std::vector<W> &out, int r) {
        return ((out[r] & guardE) << 1) & e.valid[r];
    };
    const auto inW = [&](const std::vector<W> &out, int r) {
        return ((out[r] & guardW) >> 1) & e.valid[r];
    };
    // Stacked strips continue across words: north of a strip's last
    // row lies the next strip's first row (word 0, one span higher),
    // south of its first row the previous strip's last row (last word,
    // one span lower).
    // Only a lone 64-bit lane is ever stacked (vector words always
    // pack several lanes), so vector engines compile the wrap away.
    const int rows = e.rows;
    const bool stacked =
        sizeof(W) == sizeof(std::uint64_t) && rows < span_;
    const auto inN = [&](const std::vector<W> &out, int r) {
        const W src = r + 1 < rows ? out[r + 1]
                      : stacked    ? W(out[0] >> span_)
                                   : W{};
        return src & e.valid[r];
    };
    const auto inS = [&](const std::vector<W> &out, int r) {
        const W src = r > 0     ? out[r - 1]
                      : stacked ? W(out[rows - 1] << span_)
                                : W{};
        return src & e.valid[r];
    };

    for (int r = 0; r < rows; ++r) {
        const W hot = e.hot[r];
        DirRow<W> pr_in{inN(e.pr[dN], r), inE(e.pr[dE], r),
                        inS(e.pr[dS], r), inW(e.pr[dW], r)};
        const W pr_in_any =
            pr_in[dN] | pr_in[dE] | pr_in[dS] | pr_in[dW];

        // Pair pulses reaching a hot module complete a pairing.
        e.fire[r] = pr_in_any & hot;
        fire_any |= e.fire[r];

        // Grow: hot modules emit in all directions (blocked during
        // reset); interior modules pass. In the variants without the
        // equidistant mechanism the meets happen on grow trains, so a
        // formed module consumes them.
        DirRow<W> grow_in{inN(e.g[dN], r), inE(e.g[dE], r),
                          inS(e.g[dS], r), inW(e.g[dW], r)};
        const W met_grow =
            config_.equidistantMechanism ? W{} : e.formed[r];
        for (int d = 0; d < kNumDirs; ++d)
            e.gOut[d][r] = (grow_in[d] & e.interior[r] & ~met_grow) |
                           (hot & ~inReset);

        // Meets of grow rays: requests in the final design, pair pulses
        // directly in the variants without the equidistant mechanism.
        //
        // A module that formed a pair latches `formed` (sticky until
        // the global reset) and consumes the trains that met there: it
        // emits exactly one pair pulse per leg and stops passing the
        // met trains, both this cycle (met_now) and afterwards.
        // Without this, the overlap region of two persistent trains
        // keeps expanding and excess pair pulses leak through the
        // cleared endpoints (see DESIGN.md).
        const W formed = e.formed[r];
        const W form_allow = e.interior[r] & ~hot & ~formed;
        DirRow<W> pr_raw{W{}, W{}, W{}, W{}};
        if (config_.equidistantMechanism) {
            DirRow<W> rq_emit{W{}, W{}, W{}, W{}};
            emitFromMeets(grow_in, e.interior[r] & ~hot, rq_emit);
            DirRow<W> rq_in{inN(e.rq[dN], r), inE(e.rq[dE], r),
                            inS(e.rq[dS], r), inW(e.rq[dW], r)};
            for (int d = 0; d < kNumDirs; ++d) {
                e.rqOut[d][r] = (rq_in[d] & e.interior[r] & ~hot) |
                                rq_emit[d];
                // Boundary modules answer grow with a request.
                e.rqOut[d][r] |= grow_in[kRev[d]] & e.bnd[r];
            }

            // Hot modules latch exactly one grant.
            DirRow<W> latch{e.grantLatch[dN][r], e.grantLatch[dE][r],
                            e.grantLatch[dS][r], e.grantLatch[dW][r]};
            updateGrantLatch(rq_in, hot, latch);
            DirRow<W> gr_in{inN(e.gr[dN], r), inE(e.gr[dE], r),
                            inS(e.gr[dS], r), inW(e.gr[dW], r)};
            for (int d = 0; d < kNumDirs; ++d) {
                e.grantLatch[d][r] = latch[d];
                // Hot modules do not pass foreign grant trains (they
                // emit their own); a passed-through train would form
                // spurious meets beyond the endpoint.
                e.grOut[d][r] =
                    (gr_in[d] & e.interior[r] & ~hot & ~formed) |
                    (latch[d] & hot);
            }

            // Pair pulses form where grant trains meet, and at boundary
            // modules that received a grant.
            emitFromMeets(gr_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= gr_in[kRev[d]] & e.bnd[r] & ~formed;
            const W met_now =
                pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d)
                e.grOut[d][r] &= ~met_now | (e.grantLatch[d][r] & hot);
            e.formed[r] = formed | met_now;
        } else {
            emitFromMeets(grow_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= grow_in[kRev[d]] & e.bnd[r] & ~formed;
            const W met_now =
                pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d)
                e.gOut[d][r] &= ~met_now | hot;
            e.formed[r] = formed | met_now;
        }

        // Emission is one pulse per formation (formed gating above);
        // non-hot interior modules pass, hot modules absorb. An
        // endpoint cleared this round keeps absorbing until the
        // round's pair pulses have drained: otherwise a second pulse
        // aimed at it (a competing pairing, or the second boundary
        // ring answering the same grow rays in the variants without
        // request-grant arbitration) leaks through and paints a bogus
        // crossing chain.
        const W absorb = hot | e.fired[r];
        for (int d = 0; d < kNumDirs; ++d)
            e.prOut[d][r] =
                (pr_in[d] & e.interior[r] & ~absorb) | pr_raw[d];

        // Chain membership: everything a pair pulse touches, including
        // the emitting module and the absorbing endpoints. Touches
        // TOGGLE membership (XOR): chains from successive pairing
        // rounds that cross the same data qubit must cancel, exactly
        // as destructive-read DRO error outputs drained after every
        // pairing would accumulate in the control layer's Pauli frame.
        e.chain[r] ^= e.prOut[dN][r] | e.prOut[dE][r] |
                      e.prOut[dS][r] | e.prOut[dW][r] | e.fire[r];
    }

    // Complete pairings: clear latches; maybe fire the per-lane global
    // reset. `resetNow` marks lanes whose reset fires this cycle,
    // `clearHeld` the lanes mid-reset-window without a fire — the two
    // lane sets whose grow/request/grant outputs are suppressed.
    W resetNow{};
    W fireLanes{};
    if (anyW(fire_any)) {
        for (int r = 0; r < rows; ++r) {
            const W fire = e.fire[r];
            if (!anyW(fire))
                continue;
            for (int el = 0; el < elementsOf<W>(); ++el) {
                const std::uint64_t f = elemOf(fire, el);
                if (!f)
                    continue;
                const int first = el * e.perElem;
                const int last = std::min(first + e.perElem, e.lanes);
                for (int l = first; l < last; ++l) {
                    const int cleared =
                        std::popcount(f & e.laneSub[l]);
                    laneStats[l]->pairings += cleared;
                    e.hotCount[l] -= cleared;
                }
            }
            e.hot[r] &= ~fire;
            e.fired[r] |= fire;
            for (int d = 0; d < kNumDirs; ++d)
                e.grantLatch[d][r] &= ~fire;
        }
        for (int l = 0; l < e.lanes; ++l) {
            if (!(elemOf(fire_any, e.laneElem[l]) & e.laneSub[l]))
                continue;
            orElem(fireLanes, e.laneElem[l], e.laneSub[l]);
            e.lastFire[l] = e.cycle;
            if (config_.resetMechanism) {
                ++laneStats[l]->resets;
                e.resetCountdown[l] = config_.resetCycles;
                orElem(resetNow, e.laneElem[l], e.laneSub[l]);
            }
        }
    }
    const W clearHeld = inReset & ~fireLanes;
    const W clear_out = resetNow | clearHeld;
    if (anyW(clear_out)) {
        const W keep = ~clear_out;
        for (int r = 0; r < rows; ++r)
            for (int d = 0; d < kNumDirs; ++d) {
                e.gOut[d][r] &= keep;
                e.rqOut[d][r] &= keep;
                e.grOut[d][r] &= keep;
            }
    }
    if (anyW(resetNow)) {
        const W keep = ~resetNow;
        for (int r = 0; r < rows; ++r) {
            // In the final design in-flight pair pulses are exempt so
            // the farther chain leg completes (Section VI-B); the
            // paper ties that exemption to the request-grant design,
            // so the intermediate variants clear them too.
            if (!config_.equidistantMechanism)
                for (int d = 0; d < kNumDirs; ++d)
                    e.prOut[d][r] &= keep;
            e.formed[r] &= keep;
            for (int d = 0; d < kNumDirs; ++d)
                e.grantLatch[d][r] &= keep;
        }
    }

    // End of a lane's reset window: its cleared endpoints resume
    // passing (spurious same-round pulses are gone by now in the final
    // design; the variants without the pair exemption cleared them at
    // the reset itself).
    W windowOver{};
    for (int l = 0; l < e.lanes; ++l) {
        if (e.resetCountdown[l] > 0 && --e.resetCountdown[l] == 0)
            orElem(windowOver, e.laneElem[l], e.laneSub[l]);
    }
    if (anyW(windowOver))
        for (int r = 0; r < rows; ++r)
            e.fired[r] &= ~windowOver;

    // The pairing round is over once a lane's pair pulses have all
    // drained: occupancy of next cycle's (shifted) pair inputs,
    // derived without materializing them.
    W pr_occ{};
    for (int r = 0; r < rows; ++r)
        pr_occ |= inN(e.prOut[dN], r) | inE(e.prOut[dE], r) |
                  inS(e.prOut[dS], r) | inW(e.prOut[dW], r);
    e.prOcc = pr_occ;
    W drained{};
    for (int l = 0; l < e.lanes; ++l)
        if (!(elemOf(pr_occ, e.laneElem[l]) & e.laneSub[l]))
            orElem(drained, e.laneElem[l], e.laneSub[l]);
    if (anyW(drained))
        for (int r = 0; r < rows; ++r)
            e.fired[r] &= ~drained;

    // Publish this cycle's emissions as next cycle's inputs-to-derive.
    std::swap(e.g, e.gOut);
    if (config_.equidistantMechanism) {
        std::swap(e.rq, e.rqOut);
        std::swap(e.gr, e.grOut);
    }
    std::swap(e.pr, e.prOut);
    ++e.cycle;
}

template <typename W>
void
MeshDecoder::stepChunks(LaneEngine<W> &e,
                        MeshDecodeStats *const *laneStats)
{
    static_assert(sizeof(W) > sizeof(std::uint64_t),
                  "one-word engines step through stepLanes");
    // Lanes inside their reset window at cycle entry: grow emission is
    // blocked there, and grow/request/grant outputs are cleared again
    // below unless the lane fires this very cycle.
    W inReset{};
    for (int l = 0; l < e.lanes; ++l)
        if (e.resetCountdown[l] > 0)
            orElem(inReset, e.laneElem[l], e.laneSub[l]);

    // The word is stepped in 128-bit chunks: elementwise the step is
    // independent per 64-bit element (lanes never straddle one), and a
    // 128-bit working set keeps the row's many live signals in
    // registers where a whole 256/512-bit word would spill. A chunk
    // whose lanes are all idle holds only zeros, which step to zeros,
    // so it is skipped.
    using C = W128;
    constexpr int kChunks = sizeof(W) / sizeof(C);
    constexpr int kChunkElems = sizeof(C) / sizeof(std::uint64_t);
    unsigned busy = 0;
    for (int l = 0; l < e.lanes; ++l)
        if (e.active[l])
            busy |= 1u << (e.laneElem[l] / kChunkElems);

    // Chunk views of the planes, hoisted into locals: a chunk store may
    // alias any plane, and the compiler would otherwise reload every
    // plane's data pointer after each one. Chunk c of row r sits at
    // index r * kChunks + c.
    using Planes = DirRow<C *>;
    const auto edit = [](auto &v) { return reinterpret_cast<C *>(v.data()); };
    const auto edits = [&](typename LaneEngine<W>::Planes &planes) {
        return Planes{edit(planes[dN]), edit(planes[dE]), edit(planes[dS]),
                      edit(planes[dW])};
    };
    const Planes g = edits(e.g), rq = edits(e.rq), gr = edits(e.gr),
                 pr = edits(e.pr), latchAt = edits(e.grantLatch);
    const C *const validAt = edit(e.valid);
    const C *const interiorAt = edit(e.interior);
    const C *const bndAt = edit(e.bnd);
    C *const hotAt = edit(e.hot);
    C *const firedAt = edit(e.fired);
    C *const formedAt = edit(e.formed);
    C *const chainAt = edit(e.chain);
    C *const fireAt = edit(e.fire);
    const auto part = [](const W &w, int c) -> C {
        return reinterpret_cast<const C *>(&w)[c];
    };
    // Per-chunk masks as locals, which plane stores cannot alias.
    std::array<C, kChunks> guardE, guardW, resetAt;
    for (int c = 0; c < kChunks; ++c) {
        guardE[c] = part(e.guardE, c);
        guardW[c] = part(e.guardW, c);
        resetAt[c] = part(inReset, c);
    }

    // The signal planes hold last cycle's *emissions* and are updated
    // in place, row by row; each row derives its shifted inputs on the
    // fly (a signal traveling East into row r is last cycle's East
    // emission of the same row, one column over). A row's N/E/W inputs
    // are still last cycle's when it is stepped; its S input (the row
    // below, already stepped) comes from `carry`, which keeps each
    // plane's pre-step South row per chunk. Packed words keep one mesh
    // row each (no strips), so nothing wraps.
    const int last = (e.rows - 1) * kChunks;
    /** Inputs of chunk index i from plane set @p p (pre-step rows). */
    const auto inputs = [&](const Planes &p, C north, C south, int i,
                            int c) {
        const C valid = validAt[i];
        return DirRow<C>{north & valid,
                         ((p[dE][i] & guardE[c]) << 1) & valid,
                         south & valid,
                         ((p[dW][i] & guardW[c]) >> 1) & valid};
    };
    /** Pre-step North neighbour of chunk index i. */
    const auto north = [&](const Planes &p, int i) {
        return i < last ? p[dN][i + kChunks] : C{};
    };
    /** Step-time inputs; advances the plane's South carry. */
    const auto dirIn = [&](const Planes &p, C &carry, int i, int c) {
        const DirRow<C> in = inputs(p, north(p, i), carry, i, c);
        carry = p[dS][i];
        return in;
    };
    std::array<C, kChunks> carryG{}, carryRq{}, carryGr{}, carryPr{};

    // Row-major: a row's chunks share its cache lines.
    W fire_any{};
    C *const fireAny = reinterpret_cast<C *>(&fire_any);
    for (int i = 0; i <= last + kChunks - 1; ++i) {
        const int c = i % kChunks;
        if (!(busy >> c & 1u))
            continue;
        const C reset = resetAt[c];
        const C hot = hotAt[i];
        const C interior = interiorAt[i];
        const C bnd = bndAt[i];
        const DirRow<C> pr_in = dirIn(pr, carryPr[c], i, c);
        const C pr_in_any =
            pr_in[dN] | pr_in[dE] | pr_in[dS] | pr_in[dW];

        // Pair pulses reaching a hot module complete a pairing.
        const C fire = pr_in_any & hot;
        fireAt[i] = fire;
        fireAny[c] |= fire;

        // Grow: hot modules emit in all directions (blocked during
        // reset); interior modules pass. In the variants without
        // the equidistant mechanism the meets happen on grow
        // trains, so a formed module consumes them.
        const DirRow<C> grow_in = dirIn(g, carryG[c], i, c);
        const C formed = formedAt[i];
        const C met_grow =
            config_.equidistantMechanism ? C{} : formed;
        DirRow<C> g_out;
        for (int d = 0; d < kNumDirs; ++d)
            g_out[d] = (grow_in[d] & interior & ~met_grow) |
                       (hot & ~reset);

        // Meets of grow rays: requests in the final design, pair
        // pulses directly in the variants without the equidistant
        // mechanism.
        //
        // A module that formed a pair latches `formed` (sticky
        // until the global reset) and consumes the trains that met
        // there: it emits exactly one pair pulse per leg and stops
        // passing the met trains, both this cycle (met_now) and
        // afterwards. Without this, the overlap region of two
        // persistent trains keeps expanding and excess pair pulses
        // leak through the cleared endpoints (see DESIGN.md).
        const C form_allow = interior & ~hot & ~formed;
        DirRow<C> pr_raw{C{}, C{}, C{}, C{}};
        C met_now;
        if (config_.equidistantMechanism) {
            DirRow<C> rq_emit{C{}, C{}, C{}, C{}};
            emitFromMeets(grow_in, interior & ~hot, rq_emit);
            const DirRow<C> rq_in = dirIn(rq, carryRq[c], i, c);
            for (int d = 0; d < kNumDirs; ++d)
                // Boundary modules answer grow with a request.
                rq[d][i] = (rq_in[d] & interior & ~hot) | rq_emit[d] |
                           (grow_in[kRev[d]] & bnd);

            // Hot modules latch exactly one grant.
            DirRow<C> latch{latchAt[dN][i], latchAt[dE][i],
                            latchAt[dS][i], latchAt[dW][i]};
            updateGrantLatch(rq_in, hot, latch);
            const DirRow<C> gr_in = dirIn(gr, carryGr[c], i, c);

            // Pair pulses form where grant trains meet, and at
            // boundary modules that received a grant.
            emitFromMeets(gr_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= gr_in[kRev[d]] & bnd & ~formed;
            met_now = pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d) {
                latchAt[d][i] = latch[d];
                // Hot modules do not pass foreign grant trains
                // (they emit their own); a passed-through train
                // would form spurious meets beyond the endpoint.
                const C gr_out =
                    (gr_in[d] & interior & ~hot & ~formed) |
                    (latch[d] & hot);
                gr[d][i] = gr_out & (~met_now | (latch[d] & hot));
            }
        } else {
            emitFromMeets(grow_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= grow_in[kRev[d]] & bnd & ~formed;
            met_now = pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d)
                g_out[d] &= ~met_now | hot;
        }
        formedAt[i] = formed | met_now;
        for (int d = 0; d < kNumDirs; ++d)
            g[d][i] = g_out[d];

        // Emission is one pulse per formation (formed gating
        // above); non-hot interior modules pass, hot modules
        // absorb. An endpoint cleared this round keeps absorbing
        // until the round's pair pulses have drained: otherwise a
        // second pulse aimed at it (a competing pairing, or the
        // second boundary ring answering the same grow rays in the
        // variants without request-grant arbitration) leaks
        // through and paints a bogus crossing chain.
        const C absorb = hot | firedAt[i];
        C touched = fire;
        for (int d = 0; d < kNumDirs; ++d) {
            const C pr_out = (pr_in[d] & interior & ~absorb) | pr_raw[d];
            pr[d][i] = pr_out;
            touched |= pr_out;
        }

        // Chain membership: everything a pair pulse touches,
        // including the emitting module and the absorbing
        // endpoints. Touches TOGGLE membership (XOR): chains from
        // successive pairing rounds that cross the same data qubit
        // must cancel, exactly as destructive-read DRO error
        // outputs drained after every pairing would accumulate in
        // the control layer's Pauli frame.
        chainAt[i] ^= touched;
    }

    // Complete pairings: clear latches; maybe fire the per-lane global
    // reset. `resetNow` marks lanes whose reset fires this cycle,
    // `clearHeld` the lanes mid-reset-window without a fire — the two
    // lane sets whose grow/request/grant outputs are suppressed.
    W resetNow{};
    W fireLanes{};
    if (anyW(fire_any)) {
        for (int c = 0; c < kChunks; ++c) {
            if (!anyW(part(fire_any, c)))
                continue;
            for (int i = c; i <= last + c; i += kChunks) {
                const C fire = fireAt[i];
                if (!anyW(fire))
                    continue;
                for (int j = 0; j < kChunkElems; ++j) {
                    const std::uint64_t f = elemOf(fire, j);
                    if (!f)
                        continue;
                    const int first = (c * kChunkElems + j) * e.perElem;
                    const int end = std::min(first + e.perElem, e.lanes);
                    for (int l = first; l < end; ++l) {
                        const int cleared =
                            std::popcount(f & e.laneSub[l]);
                        laneStats[l]->pairings += cleared;
                        e.hotCount[l] -= cleared;
                    }
                }
                hotAt[i] &= ~fire;
                firedAt[i] |= fire;
                for (int d = 0; d < kNumDirs; ++d)
                    latchAt[d][i] &= ~fire;
            }
        }
        for (int l = 0; l < e.lanes; ++l) {
            if (!(elemOf(fire_any, e.laneElem[l]) & e.laneSub[l]))
                continue;
            orElem(fireLanes, e.laneElem[l], e.laneSub[l]);
            e.lastFire[l] = e.cycle;
            if (config_.resetMechanism) {
                ++laneStats[l]->resets;
                e.resetCountdown[l] = config_.resetCycles;
                orElem(resetNow, e.laneElem[l], e.laneSub[l]);
            }
        }
    }

    // plane &= ~mask, skipping the chunks mask leaves alone.
    const auto clearBits = [&](C *plane, const W &mask) {
        for (int c = 0; c < kChunks; ++c) {
            const C m = part(mask, c);
            if (anyW(m))
                for (int i = c; i <= last + c; i += kChunks)
                    plane[i] &= ~m;
        }
    };
    const W clear_out = resetNow | (inReset & ~fireLanes);
    for (int d = 0; d < kNumDirs; ++d) {
        clearBits(g[d], clear_out);
        clearBits(rq[d], clear_out);
        clearBits(gr[d], clear_out);
    }
    // In the final design in-flight pair pulses are exempt from the
    // reset so the farther chain leg completes (Section VI-B); the
    // paper ties that exemption to the request-grant design, so the
    // intermediate variants clear them too.
    if (!config_.equidistantMechanism)
        for (int d = 0; d < kNumDirs; ++d)
            clearBits(pr[d], resetNow);
    clearBits(formedAt, resetNow);
    for (int d = 0; d < kNumDirs; ++d)
        clearBits(latchAt[d], resetNow);

    // End of a lane's reset window: its cleared endpoints resume
    // passing (spurious same-round pulses are gone by now in the final
    // design; the variants without the pair exemption cleared them at
    // the reset itself).
    W windowOver{};
    for (int l = 0; l < e.lanes; ++l) {
        if (e.resetCountdown[l] > 0 && --e.resetCountdown[l] == 0)
            orElem(windowOver, e.laneElem[l], e.laneSub[l]);
    }
    clearBits(firedAt, windowOver);

    // The pairing round is over once a lane's pair pulses have all
    // drained: occupancy of next cycle's (shifted) pair inputs,
    // derived without materializing them.
    W pr_occ{};
    for (int c = 0; c < kChunks; ++c) {
        if (!(busy >> c & 1u))
            continue;
        C occ{};
        for (int i = c; i <= last + c; i += kChunks) {
            const C below = i >= kChunks ? pr[dS][i - kChunks] : C{};
            const DirRow<C> in = inputs(pr, north(pr, i), below, i, c);
            occ |= in[dN] | in[dE] | in[dS] | in[dW];
        }
        reinterpret_cast<C *>(&pr_occ)[c] = occ;
    }
    e.prOcc = pr_occ;
    W drained{};
    for (int l = 0; l < e.lanes; ++l)
        if (!(elemOf(pr_occ, e.laneElem[l]) & e.laneSub[l]))
            orElem(drained, e.laneElem[l], e.laneSub[l]);
    clearBits(firedAt, drained);

    ++e.cycle;
}

namespace {

/** decodeBatch's trials: out[t] and stats[t] for syndromes[t]. */
struct BatchSource
{
    const Syndrome *const *syndromes;
    Correction *out;
    MeshDecodeStats *stats;
    int count;
    int next = 0;

    bool
    pull(int, const Syndrome *&syn, Correction *&o, MeshDecodeStats *&st)
    {
        if (next >= count)
            return false;
        const int t = next++;
        syn = syndromes[t];
        o = &out[t];
        st = &stats[t];
        return true;
    }

    void retire(int) {}
};

/** decodeLifetimes' trials: pending rounds of a LifetimeFeed. */
struct FeedSource
{
    LifetimeFeed &feed;
    Correction *out;        ///< per lane
    MeshDecodeStats *stats; ///< per lane
    std::array<std::size_t, MeshDecoder::kMaxLanes> lifetime{};

    bool
    pull(int lane, const Syndrome *&syn, Correction *&o,
         MeshDecodeStats *&st)
    {
        if (!feed.next(syn, lifetime[lane]))
            return false;
        o = &out[lane];
        st = &stats[lane];
        return true;
    }

    void
    retire(int lane)
    {
        feed.finished(lifetime[lane], out[lane], stats[lane]);
    }
};

} // namespace

template <typename F>
void
MeshDecoder::withPackedEngine(F &&f)
{
    switch (width_) {
      case simd::Width::Scalar:
        f(packedEngine(batch64_));
        break;
      case simd::Width::V256:
        f(packedEngine(batch256_));
        break;
      case simd::Width::V512:
        f(packedEngine(batch512_));
        break;
    }
}

void
MeshDecoder::decodeBatch(const Syndrome *const *syndromes,
                         std::size_t count, Correction *out,
                         TrialWorkspace &)
{
    if (count == 0)
        return;
    batchStats_.resize(count);
    BatchSource source{syndromes, out, batchStats_.data(),
                       static_cast<int>(count)};
    if (count == 1) {
        decodeLanes(scalar_, source);
        return;
    }
    withPackedEngine([&](auto &e) { decodeLanes(e, source); });
}

void
MeshDecoder::decodeLifetimes(LifetimeFeed &feed)
{
    feedOut_.resize(static_cast<std::size_t>(batchLanes_));
    batchStats_.resize(static_cast<std::size_t>(batchLanes_));
    FeedSource source{feed, feedOut_.data(), batchStats_.data()};
    withPackedEngine([&](auto &e) { decodeLanes(e, source); });
}

const MeshDecodeStats *
MeshDecoder::meshStats(std::size_t lane) const
{
    return lane < batchStats_.size() ? &batchStats_[lane] : nullptr;
}

void
MeshWorkCounters::exportTo(obs::MetricSet &out) const
{
    if (decodes == 0)
        return;
    out.add("decoder.mesh.decodes", decodes);
    out.add("decoder.mesh.cycles", cycles);
    out.add("decoder.mesh.pairings", pairings);
    out.add("decoder.mesh.resets", resets);
    out.add("decoder.mesh.cycles_capped", capped);
    out.add("decoder.mesh.quiesced", quiesced);
}

void
MeshDecoder::exportMetrics(obs::MetricSet &out) const
{
    work_.exportTo(out);
}

template <typename W>
void
MeshDecoder::finishLane(LaneEngine<W> &e, int lane, Correction &out,
                        MeshDecodeStats &stats)
{
    stats.remainingHot = e.hotCount[lane];

    // Every completed trial — scalar or batched — retires through
    // here exactly once, so this is the single accumulation point for
    // the deterministic work counters (stats.cycles and the exit
    // flags are final by now; pairings/resets latched in stepLanes).
    work_.add(stats);

    // A trial that completed the cycle it was injected (an empty
    // syndrome) never touched its clean lane: nothing to harvest or
    // zero.
    if (stats.cycles == 0) {
        e.active[lane] = false;
        return;
    }

    // Harvest this lane's chain bits into data-qubit flips (ascending
    // row, then column — the same order for every layout).
    const int el = e.laneElem[lane];
    const int base = e.laneBase[lane];
    const int n = lattice().gridSize();
    const std::uint64_t span_bits = (std::uint64_t{1} << span_) - 1;
    for (int r = 0; r < n; ++r) {
        const RowSlot at = e.slot(r + 1, span_);
        std::uint64_t row = ((elemOf(e.chain[at.word], el) &
                              elemOf(e.interior[at.word], el)) >>
                             (base + at.shift)) &
                            span_bits;
        while (row) {
            const int bit = std::countr_zero(row);
            row &= row - 1;
            const Coord rc{r, bit - 1};
            if (lattice().role(rc) == SiteRole::Data)
                out.dataFlips.push_back(lattice().dataIndex(rc));
        }
    }

    // Zero the lane everywhere: once freed it contributes no signals,
    // no firings and no stats, and the next trial injected into it
    // starts from clean planes. Only its own element is touched.
    const std::uint64_t keep = ~e.laneSub[lane];
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (auto &plane : *planes)
            for (W &w : plane)
                andElem(w, el, keep);
    for (auto *rows : {&e.formed, &e.fired, &e.hot, &e.chain})
        for (W &w : *rows)
            andElem(w, el, keep);
    e.resetCountdown[lane] = 0;
    e.hotCount[lane] = 0;
    e.active[lane] = false;
    andElem(e.prOcc, el, keep); // its pair pulses are gone with it
}

template <typename W, typename Source>
void
MeshDecoder::decodeLanes(LaneEngine<W> &e, Source &source)
{
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (auto &plane : *planes)
            std::fill(plane.begin(), plane.end(), W{});
    for (auto *rows : {&e.formed, &e.fired, &e.hot, &e.chain})
        std::fill(rows->begin(), rows->end(), W{});
    e.cycle = 0;
    e.prOcc = W{};

    // Per-lane trial bookkeeping. Every comparison against the global
    // cycle counter is relative to the lane's start cycle, so a trial
    // injected mid-flight behaves exactly as if it were decoded alone
    // from cycle 0.
    MeshDecodeStats dummy;
    std::array<MeshDecodeStats *, kMaxLanes> laneStats;
    std::array<Correction *, kMaxLanes> laneOut{};
    std::array<std::int64_t, kMaxLanes> start{};
    for (int l = 0; l < e.lanes; ++l) {
        laneStats[l] = &dummy;
        e.active[l] = false;
        e.resetCountdown[l] = 0;
        e.lastFire[l] = 0;
        e.hotCount[l] = 0;
    }

    int running = 0; ///< lanes holding a trial
    for (;;) {
        bool retired = false;
        for (int l = 0; l < e.lanes; ++l) {
            // Retire-and-refill loop: a lane may complete an injected
            // empty syndrome instantly and take another in the same
            // cycle.
            for (;;) {
                if (!e.active[l]) {
                    const Syndrome *syn = nullptr;
                    if (!source.pull(l, syn, laneOut[l], laneStats[l]))
                        break;
                    require(syn->type() == type(),
                            "MeshDecoder: syndrome type mismatch");
                    *laneStats[l] = MeshDecodeStats{};
                    laneOut[l]->clear();
                    start[l] = e.cycle;
                    e.lastFire[l] = e.cycle;
                    e.hotCount[l] = syn->weight();
                    e.active[l] = true;
                    ++running;
                    const int el = e.laneElem[l];
                    const int base = e.laneBase[l];
                    syn->forEachHot([&](int a) {
                        const Coord rc =
                            lattice().ancillaCoord(type(), a);
                        const RowSlot at = e.slot(rc.row + 1, span_);
                        orElem(e.hot[at.word], el,
                               std::uint64_t{1}
                                   << (base + at.shift + rc.col + 1));
                    });
                }
                const bool pr_empty =
                    !(elemOf(e.prOcc, e.laneElem[l]) & e.laneSub[l]);
                if (e.hotCount[l] == 0 && pr_empty) {
                    // completed
                } else if (e.cycle - start[l] >= cycleCap_) {
                    laneStats[l]->timedOut = true;
                } else if (e.cycle - e.lastFire[l] > quiescence_) {
                    laneStats[l]->quiesced = true;
                } else {
                    break; // still stepping
                }
                laneStats[l]->cycles = static_cast<int>(e.cycle - start[l]);
                finishLane(e, l, *laneOut[l], *laneStats[l]);
                laneStats[l] = &dummy;
                --running;
                retired = true;
                source.retire(l);
            }
        }
        // A retirement late in the sweep may have made work pending
        // for lanes already passed: sweep again before concluding the
        // source is dry.
        if (running == 0 && !retired)
            break;
        if (running == 0)
            continue;
        if constexpr (sizeof(W) == sizeof(std::uint64_t))
            stepLanes(e, laneStats.data());
        else
            stepChunks(e, laneStats.data());
    }
}

} // namespace nisqpp
