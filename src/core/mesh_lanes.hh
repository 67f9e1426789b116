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

#include <array>
#include <cstdint>
#include <utility>

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
using simd::maskWhereAny;
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
    // Every bit of each lane in which @p w has a bit: one whole-word
    // compare per sub-lane position of a packed element, and the whole
    // word for the lone stacked lane (LaneEngine::stacked).
    const auto lanesOf = [&](const W &w) {
        if constexpr (Stacked) {
            return anyW(w) ? ~W{} : W{};
        } else {
            W lanes{};
            for (int j = 0; j < e.perElem; ++j)
                lanes |= maskWhereAny(w, e.subLane[j]);
            return lanes;
        }
    };

    // Lanes inside their reset window at cycle entry, reset in one of
    // the previous kMeshResetCycles - 1 cycles, emit no grow, request
    // or grant signals. This cycle's ring slot still holds cycle -
    // kMeshResetCycles; the oldest live slot follows it.
    constexpr int kRing = kMeshResetCycles;
    W *const ring = e.resetRing;
    const int now = static_cast<int>(e.cycle % kRing);
    const W oldest = ring[(now + 1) % kRing];
    W recent{};
    for (int k = 2; k < kRing; ++k)
        recent |= ring[(now + k) % kRing];
    const W inReset = oldest | recent;

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

    // Pair pulses reaching a hot module complete a pairing. The fires
    // come first, so the row loop below knows which lanes fire and
    // reset this cycle. Each fire clears a hot latch (pairings), and
    // only lanes holding a fire bit are visited.
    W fire_any{};
    std::uint64_t firedLanes = 0;
    for (int r = 0; r < rows; ++r) {
        const W fire = (inN(e.pr[dN], r) | inE(e.pr[dE], r) |
                        inS(e.pr[dS], r) | inW(e.pr[dW], r)) &
                       e.hot[r];
        e.fire[r] = fire;
        if (!anyW(fire))
            continue;
        fire_any |= fire;
        for (int el = 0; el < elementsOf<W>(); ++el) {
            for (std::uint64_t f = elemOf(fire, el); f;) {
                // The stacked lane owns every element.
                const int l = Stacked ? 0
                                      : el * e.perElem +
                                            e.subOf[__builtin_ctzll(f)];
                const std::uint64_t mine = Stacked ? f : f & e.laneSub[l];
                f &= ~mine;
                const int cleared = __builtin_popcountll(mine);
                laneStats[l]->pairings += cleared;
                if ((e.hotCount[l] -= cleared) == 0)
                    e.cold |= std::uint64_t{1} << l;
                firedLanes |= std::uint64_t{1} << l;
            }
        }
    }
    // A lane that fires restarts its quiescence window and, given the
    // mechanism, fires its global reset.
    for (std::uint64_t f = firedLanes; f; f &= f - 1) {
        const int l = __builtin_ctzll(f);
        e.lastFire[l] = e.cycle;
        if (config_.resetMechanism)
            ++laneStats[l]->resets;
    }
    const W resetNow = config_.resetMechanism && firedLanes
                           ? lanesOf(fire_any)
                           : W{};
    // Grow/request/grant outputs are suppressed in the lanes that reset
    // this cycle and in those mid-reset-window. The reset also clears
    // the formed latches and grant choices, and in the variants
    // without the equidistant mechanism the pair pulses: in the final
    // design in-flight pair pulses are exempt so the farther chain leg
    // completes (Section VI-B), and the paper ties that exemption to
    // the request-grant design.
    const W keep = ~(resetNow | inReset);
    const W unset = ~resetNow;
    const W prKeep = config_.equidistantMechanism ? ~W{} : unset;

    for (int r = 0; r < rows; ++r) {
        const W hot = e.hot[r];
        const W fire = e.fire[r];
        DirRow<W> pr_in{inN(e.pr[dN], r), inE(e.pr[dE], r),
                        inS(e.pr[dS], r), inW(e.pr[dW], r)};

        // Grow: hot modules emit in all directions (blocked during
        // reset by `keep`); interior modules pass. In the variants
        // without the equidistant mechanism the meets happen on grow
        // trains, so a formed module consumes them.
        DirRow<W> grow_in{inN(e.g[dN], r), inE(e.g[dE], r),
                          inS(e.g[dS], r), inW(e.g[dW], r)};
        const W met_grow =
            config_.equidistantMechanism ? W{} : e.formed[r];
        DirRow<W> g_out;
        for (int d = 0; d < kNumDirs; ++d)
            g_out[d] = (grow_in[d] & e.interior[r] & ~met_grow) | hot;

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
            // Boundary modules answer grow with a request.
            for (int d = 0; d < kNumDirs; ++d)
                e.rqOut[d][r] = ((rq_in[d] & e.interior[r] & ~hot) |
                                 rq_emit[d] |
                                 (grow_in[kRev[d]] & e.bnd[r])) &
                                keep;

            // Hot modules latch exactly one grant.
            DirRow<W> latch{e.grantLatch[dN][r], e.grantLatch[dE][r],
                            e.grantLatch[dS][r], e.grantLatch[dW][r]};
            updateGrantLatch(rq_in, hot, latch);
            DirRow<W> gr_in{inN(e.gr[dN], r), inE(e.gr[dE], r),
                            inS(e.gr[dS], r), inW(e.gr[dW], r)};
            // A fire clears its module's grant choice.
            for (int d = 0; d < kNumDirs; ++d)
                e.grantLatch[d][r] = latch[d] & ~fire & unset;

            // Pair pulses form where grant trains meet, and at boundary
            // modules that received a grant.
            emitFromMeets(gr_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= gr_in[kRev[d]] & e.bnd[r] & ~formed;
            const W met_now =
                pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            // Hot modules do not pass foreign grant trains (they emit
            // their own); a passed-through train would form spurious
            // meets beyond the endpoint.
            for (int d = 0; d < kNumDirs; ++d)
                e.grOut[d][r] =
                    ((gr_in[d] & e.interior[r] & ~hot & ~formed &
                      ~met_now) |
                     (latch[d] & hot)) &
                    keep;
            e.formed[r] = (formed | met_now) & unset;
        } else {
            emitFromMeets(grow_in, form_allow, pr_raw);
            for (int d = 0; d < kNumDirs; ++d)
                pr_raw[d] |= grow_in[kRev[d]] & e.bnd[r] & ~formed;
            const W met_now =
                pr_raw[dN] | pr_raw[dE] | pr_raw[dS] | pr_raw[dW];
            for (int d = 0; d < kNumDirs; ++d)
                g_out[d] &= ~met_now | hot;
            e.formed[r] = (formed | met_now) & unset;
        }
        for (int d = 0; d < kNumDirs; ++d)
            e.gOut[d][r] = g_out[d] & keep;

        // Emission is one pulse per formation (formed gating above);
        // non-hot interior modules pass, hot modules absorb. An
        // endpoint cleared this round keeps absorbing until the
        // round's pair pulses have drained: otherwise a second pulse
        // aimed at it (a competing pairing, or the second boundary
        // ring answering the same grow rays in the variants without
        // request-grant arbitration) leaks through and paints a bogus
        // crossing chain.
        const W absorb = hot | e.fired[r];
        DirRow<W> pr_out;
        for (int d = 0; d < kNumDirs; ++d) {
            pr_out[d] = (pr_in[d] & e.interior[r] & ~absorb) | pr_raw[d];
            e.prOut[d][r] = pr_out[d] & prKeep;
        }

        // Chain membership: everything a pair pulse touches, including
        // the emitting module and the absorbing endpoints. Touches
        // TOGGLE membership (XOR): chains from successive pairing
        // rounds that cross the same data qubit must cancel, exactly
        // as destructive-read DRO error outputs drained after every
        // pairing would accumulate in the control layer's Pauli frame.
        e.chain[r] ^= pr_out[dN] | pr_out[dE] | pr_out[dS] |
                      pr_out[dW] | fire;

        // A fired endpoint is no longer hot, but keeps absorbing.
        e.hot[r] = hot & ~fire;
        e.fired[r] |= fire;
    }

    // End of a lane's reset window, kMeshResetCycles - 1 cycles after
    // its last reset: its cleared endpoints resume passing (spurious
    // same-round pulses are gone by now in the final design; the
    // variants without the pair exemption cleared them at the reset
    // itself).
    const W windowOver = oldest & ~(recent | resetNow);
    ring[now] = resetNow;

    // The pairing round is over once a lane's pair pulses have all
    // drained: occupancy of next cycle's (shifted) pair inputs,
    // derived without materializing them. Both ends release the
    // lane's cleared endpoints.
    W pr_occ{};
    for (int r = 0; r < rows; ++r)
        pr_occ |= inN(e.prOut[dN], r) | inE(e.prOut[dE], r) |
                  inS(e.prOut[dS], r) | inW(e.prOut[dW], r);
    e.prOcc = pr_occ;
    const W keepFired = lanesOf(pr_occ) & ~windowOver;
    for (int r = 0; r < rows; ++r)
        e.fired[r] &= keepFired;

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
    e.busy &= ~(std::uint64_t{1} << lane);
    e.cold &= ~(std::uint64_t{1} << lane);

    // Every completed trial — scalar or batched — retires through
    // here exactly once, so this is the single accumulation point for
    // the deterministic work counters (stats.cycles and the exit
    // flags are final by now; pairings/resets latched in stepLanes).
    work_.add(stats);

    // A trial that completed the cycle it was injected (an empty
    // syndrome) never touched its clean lane: nothing to harvest or
    // zero.
    if (stats.cycles == 0)
        return;

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

    // Its pair pulses are gone with it; decodeLanes zeroes the rest
    // of the lane before the next step.
    if (e.stacked)
        e.prOcc = W{};
    else
        andElem(e.prOcc, el, ~e.laneSub[lane]);
}

template <typename Isa, typename W, typename Source>
void
MeshDecoder::decodeLanes(LaneEngine<W> &e, Source &source)
{
    using namespace mesh_lanes;
    // AND @p keep into every plane row holding trial state.
    const auto keepOnly = [&](const W &keep) {
        for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch})
            for (W *plane : *planes)
                for (int r = 0; r < e.rows; ++r)
                    plane[r] &= keep;
        for (W *plane : {e.formed, e.fired, e.hot, e.chain})
            for (int r = 0; r < e.rows; ++r)
                plane[r] &= keep;
        for (int k = 0; k < kMeshResetCycles; ++k)
            e.resetRing[k] &= keep;
    };
    keepOnly(W{});
    e.cycle = 0;
    e.prOcc = W{};
    e.busy = e.cold = 0;

    // Per-lane trial bookkeeping, written when a lane takes a trial
    // and read only while it holds one. Every comparison against the
    // global cycle counter is relative to the lane's start cycle, so a
    // trial injected mid-flight behaves exactly as if it were decoded
    // alone from cycle 0.
    std::array<MeshDecodeStats *, kMaxLanes> laneStats;
    std::array<Correction *, kMaxLanes> laneOut;
    std::array<std::int64_t, kMaxLanes> start;
    std::array<const Syndrome *, kMaxLanes> laneSyn;
    const auto &sites = lattice().ancillaSites(type());
    // Lanes retired after stepping and lanes admitted with hot
    // modules since the last step: the former are zeroed together and
    // then the latter's hot modules placed, before the next step.
    std::uint64_t stale = 0, fresh = 0;
    const std::uint64_t all =
        e.lanes == 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << e.lanes) - 1;
    // A cycle no busy lane reaches its cycle cap or quiescence window
    // before. Fires only move a lane's window later, so it stays a
    // lower bound until a sweep of every busy lane recomputes it.
    constexpr std::int64_t kNever = INT64_MAX;
    std::int64_t due = kNever;
    const auto watch = [&](int l) {
        const std::int64_t capped = start[l] + cycleCap_;
        const std::int64_t quiet = e.lastFire[l] + quiescence_ + 1;
        due = capped < due ? capped : due;
        due = quiet < due ? quiet : due;
    };
    // A pull failed and no lane retired since: only a retirement makes
    // a source's work pending, so idle lanes need not ask again.
    bool dry = false;

    for (;;) {
        // Visit, in ascending order, the lanes that can change between
        // steps: busy ones with no hot module left (completion), idle
        // ones unless the source is dry, and every busy one once the
        // earliest deadline is reached.
        const bool every = e.cycle >= due;
        if (every)
            due = kNever;
        bool retired = false;
        for (int l = 0; l < e.lanes; ++l) {
            const std::uint64_t todo =
                (e.cold | (every ? e.busy : 0) |
                 (dry ? 0 : all & ~e.busy)) &
                (~std::uint64_t{0} << l);
            if (!todo)
                break;
            l = __builtin_ctzll(todo);
            const std::uint64_t bit = std::uint64_t{1} << l;
            // Retire-and-refill loop: a lane may complete an injected
            // empty syndrome instantly and take another in the same
            // cycle.
            for (;;) {
                if (!(e.busy & bit)) {
                    const Syndrome *syn = nullptr;
                    if (!source.pull(l, syn, laneOut[l], laneStats[l])) {
                        dry = true;
                        break;
                    }
                    e.hotCount[l] = admit(*syn, *laneOut[l], *laneStats[l]);
                    start[l] = e.cycle;
                    e.lastFire[l] = e.cycle;
                    e.busy |= bit;
                    if (e.hotCount[l] == 0)
                        e.cold |= bit;
                    else
                        fresh |= bit;
                    laneSyn[l] = syn;
                    watch(l);
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
                if (laneStats[l]->cycles > 0)
                    stale |= bit;
                finishLane<Isa>(e, l, *laneOut[l], *laneStats[l]);
                retired = true;
                dry = false;
                source.retire(l);
            }
            if (every && (e.busy & bit))
                watch(l);
        }
        // A retirement late in the sweep may have made work pending
        // for lanes already passed: sweep again before concluding the
        // source is dry.
        if (!e.busy && !retired)
            break;
        if (!e.busy)
            continue;

        // Zero the retired lanes everywhere, one whole-word AND per
        // plane row for all of them: once freed a lane contributes no
        // signals, no firings, no resets and no stats, and the next
        // trial injected into it starts from clean planes. The stacked
        // lane owns whole words.
        if (stale) {
            W keep{};
            if (!e.stacked) {
                keep = ~W{};
                for (; stale; stale &= stale - 1) {
                    const int l = __builtin_ctzll(stale);
                    andElem(keep, e.laneElem[l], ~e.laneSub[l]);
                }
            }
            stale = 0;
            keepOnly(keep);
        }
        for (; fresh; fresh &= fresh - 1) {
            const int l = __builtin_ctzll(fresh);
            const int el = e.laneElem[l];
            const int base = e.laneBase[l];
            laneSyn[l]->forEachHot([&](int a) {
                const Coord rc = sites[a];
                const RowSlot at = e.slot[rc.row + 1];
                orElem(e.hot[at.word], el + at.elem,
                       std::uint64_t{1} << (base + at.shift + rc.col + 1));
            });
        }

        if (e.stacked)
            stepLanes<Isa, true>(e, laneStats.data());
        else
            stepLanes<Isa, false>(e, laneStats.data());
    }
}

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_LANES_HH
