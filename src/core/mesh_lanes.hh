/**
 * @file
 * The mesh lane engine's stepping templates — MeshDecoder::decodeLanes,
 * stepLanes and finishLane — and the two trial sources they run.
 * Include only from the engine's translation units: mesh_decoder.cc
 * instantiates the portable build (simd::Portable) of every lane word,
 * and mesh_lanes_avx2.cc / mesh_lanes_avx512.cc, compiled with -mavx2
 * and -mavx512f, the native builds of the 256- and 512-bit words
 * (simd::Avx2, simd::Avx512).
 *
 * A native unit compiles every inline function it uses for its ISA,
 * and when such a function is emitted out of line (as at -O0) the
 * linker keeps one copy of each name for all callers. So everything
 * here that computes on lane words is either named by the ISA tag (the
 * three templates and their lambdas) or always inlined (the simd::
 * accessors, emitFromMeets, updateGrantLatch). Bit counts use compiler
 * builtins rather than <bit> templates and planes are cleared by plain
 * loops. Per-trial bookkeeping that needs other inline helpers
 * (require, Syndrome::weight, std::vector) runs out of line in the
 * generic unit (admit, harvestRow). The ctest cli.isa_guard
 * disassembles nisqpp_run and the native objects to hold this.
 */

#ifndef NISQPP_CORE_MESH_LANES_HH
#define NISQPP_CORE_MESH_LANES_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/mesh_decoder.hh"

namespace nisqpp {

namespace mesh_lanes {

constexpr int dN = static_cast<int>(Dir::N);
constexpr int dE = static_cast<int>(Dir::E);
constexpr int dS = static_cast<int>(Dir::S);
constexpr int dW = static_cast<int>(Dir::W);

/// kRev[d] = index of the reversed travel direction.
constexpr int kRev[kNumDirs] = {dS, dW, dN, dE};

using simd::andElem;
using simd::anyW;
using simd::elementsOf;
using simd::elemOf;
using simd::nextElems;
using simd::orElem;
using simd::prevElems;

} // namespace mesh_lanes

/** decodeBatch's trials: out[t] and stats[t] for syndromes[t]. */
struct MeshDecoder::BatchSource
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
struct MeshDecoder::FeedSource
{
    LifetimeFeed &feed;
    Correction *out;        ///< per lane
    MeshDecodeStats *stats; ///< per lane
    std::array<std::size_t, kMaxLanes> lifetime{};

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

template <typename Isa, bool Stacked, typename W>
void
MeshDecoder::stepLanes(LaneEngine<W> &e,
                       MeshDecodeStats *const *laneStats)
{
    using namespace mesh_lanes;
    // Lane masks: a packed lane is a sub-lane of one element, the lone
    // stacked lane every bit of the word (LaneEngine::stacked).
    const auto has = [&](const W &w, int l) {
        if constexpr (Stacked)
            return anyW(w);
        else
            return (elemOf(w, e.laneElem[l]) & e.laneSub[l]) != 0;
    };
    const auto mark = [&](W &w, int l) {
        if constexpr (Stacked)
            w = ~W{};
        else
            orElem(w, e.laneElem[l], e.laneSub[l]);
    };

    // Lanes inside their reset window at cycle entry: grow emission is
    // blocked there, and grow/request/grant outputs are cleared again
    // below unless the lane fires this very cycle.
    W inReset{};
    for (int l = 0; l < e.lanes; ++l)
        if (e.resetCountdown[l] > 0)
            mark(inReset, l);

    W fire_any{};
    const W guardE = e.guardE, guardW = e.guardW;

    // The planes hold last cycle's *emissions*; each row derives the
    // shifted inputs on the fly (a signal traveling East into row r is
    // last cycle's East emission of the same row, one column over),
    // saving a full materialization pass per plane per cycle.
    const auto inE = [&](const W *out, int r) {
        return ((out[r] & guardE) << 1) & e.valid[r];
    };
    const auto inW = [&](const W *out, int r) {
        return ((out[r] & guardW) >> 1) & e.valid[r];
    };
    // Stacked strip rows run across elements, so north/south is one
    // element over (continuing into the next/previous word), and
    // strips continue across words: north of a strip's last row lies
    // the next strip's first row (word 0, one span higher), south of
    // its first row the previous strip's last row (last word, one span
    // lower).
    const int rows = e.rows;
    const auto inN = [&](const W *out, int r) {
        W src;
        if constexpr (Stacked)
            src = nextElems(out[r], r + 1 < rows ? out[r + 1]
                                                 : W(out[0] >> span_));
        else
            src = r + 1 < rows ? out[r + 1] : W{};
        return src & e.valid[r];
    };
    const auto inS = [&](const W *out, int r) {
        W src;
        if constexpr (Stacked)
            src = prevElems(r > 0 ? out[r - 1]
                                  : W(out[rows - 1] << span_),
                            out[r]);
        else
            src = r > 0 ? out[r - 1] : W{};
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
        // cleared endpoints.
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
                // The stacked lane owns every element.
                const int first = Stacked ? 0 : el * e.perElem;
                const int last = std::min(first + e.perElem, e.lanes);
                for (int l = first; l < last; ++l) {
                    const int cleared =
                        __builtin_popcountll(f & e.laneSub[l]);
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
            if (!has(fire_any, l))
                continue;
            mark(fireLanes, l);
            e.lastFire[l] = e.cycle;
            if (config_.resetMechanism) {
                ++laneStats[l]->resets;
                e.resetCountdown[l] = kMeshResetCycles;
                mark(resetNow, l);
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
            mark(windowOver, l);
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
        if (!has(pr_occ, l))
            mark(drained, l);
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

template <typename Isa, typename W>
void
MeshDecoder::finishLane(LaneEngine<W> &e, int lane, Correction &out,
                        MeshDecodeStats &stats)
{
    using namespace mesh_lanes;
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
        const RowSlot at = e.slot[r + 1];
        const int at_el = el + at.elem;
        const std::uint64_t row =
            ((elemOf(e.chain[at.word], at_el) &
              elemOf(e.interior[at.word], at_el)) >>
             (base + at.shift)) &
            span_bits;
        if (row)
            harvestRow(r, row, out);
    }

    // Zero the lane everywhere: once freed it contributes no signals,
    // no firings and no stats, and the next trial injected into it
    // starts from clean planes. A packed lane touches only its own
    // element; the stacked lane owns whole words.
    const std::uint64_t keep = ~e.laneSub[lane];
    const auto clear = [&](W &w) {
        if (e.stacked)
            w = W{};
        else
            andElem(w, el, keep);
    };
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (W *plane : *planes)
            for (int r = 0; r < e.rows; ++r)
                clear(plane[r]);
    for (W *plane : {e.formed, e.fired, e.hot, e.chain})
        for (int r = 0; r < e.rows; ++r)
            clear(plane[r]);
    e.resetCountdown[lane] = 0;
    e.hotCount[lane] = 0;
    e.active[lane] = false;
    clear(e.prOcc); // its pair pulses are gone with it
}

template <typename Isa, typename W, typename Source>
void
MeshDecoder::decodeLanes(LaneEngine<W> &e, Source &source)
{
    using namespace mesh_lanes;
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
        for (W *plane : *planes)
            for (int r = 0; r < e.rows; ++r)
                plane[r] = W{};
    for (W *plane : {e.formed, e.fired, e.hot, e.chain})
        for (int r = 0; r < e.rows; ++r)
            plane[r] = W{};
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
                    e.hotCount[l] = admit(*syn, *laneOut[l], *laneStats[l]);
                    start[l] = e.cycle;
                    e.lastFire[l] = e.cycle;
                    e.active[l] = true;
                    ++running;
                    const int el = e.laneElem[l];
                    const int base = e.laneBase[l];
                    syn->forEachHot([&](int a) {
                        const Coord rc =
                            lattice().ancillaCoord(type(), a);
                        const RowSlot at = e.slot[rc.row + 1];
                        orElem(e.hot[at.word], el + at.elem,
                               std::uint64_t{1}
                                   << (base + at.shift + rc.col + 1));
                    });
                }
                const bool pr_empty =
                    e.stacked ? !anyW(e.prOcc)
                              : !(elemOf(e.prOcc, e.laneElem[l]) &
                                  e.laneSub[l]);
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
                finishLane<Isa>(e, l, *laneOut[l], *laneStats[l]);
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
        if (e.stacked)
            stepLanes<Isa, true>(e, laneStats.data());
        else
            stepLanes<Isa, false>(e, laneStats.data());
    }
}

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_LANES_HH
