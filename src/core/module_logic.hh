/**
 * @file
 * Combinational building blocks of the decoder module microarchitecture
 * (paper Fig. 9), shared between the vectorized mesh simulator (which
 * evaluates them one 64-bit row at a time) and the SFQ netlist generator
 * (which instantiates them gate-by-gate).
 *
 * Signals are identified by their *travel* direction. A signal traveling
 * East is received on a module's west port; the paper's "receives grow
 * signals from up and left" therefore corresponds to travel directions
 * {South, East}.
 */

#ifndef NISQPP_CORE_MODULE_LOGIC_HH
#define NISQPP_CORE_MODULE_LOGIC_HH

#include <array>
#include <cstdint>

#include "common/simd.hh"

namespace nisqpp {

/** Travel direction of a mesh signal. */
enum class Dir : unsigned char
{
    N = 0, ///< toward decreasing row
    E = 1, ///< toward increasing column
    S = 2, ///< toward increasing row
    W = 3, ///< toward decreasing column
};

constexpr int kNumDirs = 4;

/** Opposite travel direction. */
constexpr Dir
reverseDir(Dir d)
{
    switch (d) {
      case Dir::N: return Dir::S;
      case Dir::E: return Dir::W;
      case Dir::S: return Dir::N;
      case Dir::W: return Dir::E;
    }
    return Dir::N;
}

/** Signals of one kind on one row, indexed by travel direction. */
template <typename Word>
using DirRow = std::array<Word, kNumDirs>;

/**
 * Meeting detection and back-emission (the Pair_Req and Pair subcircuit
 * cores). A module where signals of two distinct travel directions
 * coincide emits responses along both reversed directions. The hardwired
 * effectiveness priority resolves the two candidate corner modules of a
 * diagonal arrangement: effective pairs, in priority order, are
 * {E,W}, {N,S}, {S,E}, {S,W}; pairs {N,W} and {N,E} are ineffective
 * (the paper's "up and left effective / down and right ineffective"
 * hardwiring, extended to all arrangements so that exactly one corner
 * of every diagonal arrangement acts and the pair forms along one
 * path).
 *
 * @param in    Incoming signal planes by travel direction.
 * @param allow Mask of modules permitted to act as intermediates
 *              (non-hot interior modules).
 * @param out   Accumulates emissions by travel direction (ORed in).
 *
 * Always inlined, like updateGrantLatch: the mesh's native-ISA lane
 * units must not emit out-of-line copies under a name the portable
 * build shares (see common/simd.hh).
 */
template <typename Word>
NISQPP_LANE_INLINE void
emitFromMeets(const DirRow<Word> &in, Word allow, DirRow<Word> &out)
{
    const auto n = static_cast<int>(Dir::N);
    const auto e = static_cast<int>(Dir::E);
    const auto s = static_cast<int>(Dir::S);
    const auto w = static_cast<int>(Dir::W);

    const Word m_ew = in[e] & in[w] & allow;
    const Word m_ns = in[n] & in[s] & allow & ~m_ew;
    const Word m_se = in[s] & in[e] & allow & ~m_ew & ~m_ns;
    const Word m_sw = in[s] & in[w] & allow & ~m_ew & ~m_ns & ~m_se;

    // A meet of travel pair (d1, d2) emits along rev(d1) and rev(d2).
    out[w] |= m_ew | m_se;
    out[e] |= m_ew | m_sw;
    out[n] |= m_ns | m_se | m_sw;
    out[s] |= m_ns;
}

/**
 * Grant-latch arbitration at hot modules (Pair_Grant subcircuit):
 * of the incoming pair-request directions, a free hot module latches
 * exactly one grant, emitted along the reversed travel direction.
 * Request priority (travel direction of the request): W, E, S, N.
 *
 * @param rq    Incoming pair-request planes by travel direction.
 * @param hot   Hot-syndrome latches.
 * @param latch Grant latches by *grant* travel direction (updated).
 */
template <typename Word>
NISQPP_LANE_INLINE void
updateGrantLatch(const DirRow<Word> &rq, Word hot, DirRow<Word> &latch)
{
    const auto n = static_cast<int>(Dir::N);
    const auto e = static_cast<int>(Dir::E);
    const auto s = static_cast<int>(Dir::S);
    const auto w = static_cast<int>(Dir::W);

    Word free = hot & ~(latch[n] | latch[e] | latch[s] | latch[w]);
    const Word c1 = free & rq[w]; // request from the east -> grant East
    latch[e] |= c1;
    free &= ~c1;
    const Word c2 = free & rq[e];
    latch[w] |= c2;
    free &= ~c2;
    const Word c3 = free & rq[s]; // request from the north -> grant North
    latch[n] |= c3;
    free &= ~c3;
    const Word c4 = free & rq[n];
    latch[s] |= c4;
}

} // namespace nisqpp

#endif // NISQPP_CORE_MODULE_LOGIC_HH
