/**
 * @file
 * Runtime SIMD width dispatch for the mesh decoder's lane engine,
 * which is templated on a lane word type. This header provides the
 * three word candidates — a plain 64-bit word and GNU-vector
 * 256/512-bit words — plus a process-wide active width,
 * chosen once at startup from CPUID and overridable by the validated
 * `NISQPP_SIMD` env knob or the hard-failing `--simd` CLI flag.
 *
 * The vector types compile at the baseline ISA everywhere except in
 * the mesh lane engine's native units: GNU vector extensions lower to
 * whatever the baseline offers (SSE2 pairs, or plain scalar words), so
 * selecting a wider word on older hardware is safe — it just packs
 * more lanes per loop without the single-instruction step. CPUID
 * therefore only picks the default that is *fastest*, not the widest
 * that is *legal*, and tests can pin any width on any machine. The
 * mesh engine's 256/512-bit words are also compiled a second time, in
 * units built with -mavx2 / -mavx512f (the features detectWidth()
 * probes), under the ISA tags below; a decoder steps that native build
 * whenever nativeEngine() says the CPU runs it, and the baseline build
 * otherwise.
 *
 * Decoders latch the active width at construction (and build only that
 * engine), so changing the width mid-run never mixes engines. Lane
 * results are indexed by trial, not by lane geometry, and every
 * exported counter is an order-independent per-trial sum — so decodes
 * are bit-identical across widths and the golden net never sees which
 * word stepped them.
 */

#ifndef NISQPP_COMMON_SIMD_HH
#define NISQPP_COMMON_SIMD_HH

#include <cstdint>
#include <string>

namespace nisqpp {
namespace simd {

/** Lane word widths the lane engine can step. */
enum class Width
{
    Scalar, ///< one 64-bit word per step
    V256,   ///< 4 x 64-bit GNU vector (AVX2-sized)
    V512    ///< 8 x 64-bit GNU vector (AVX-512-sized)
};

/**
 * ISA tags of a lane engine's build. Portable names the baseline-ISA
 * build of the engine templates; Avx2 and Avx512 name the native builds
 * of the 256- and 512-bit words, each instantiated only in a translation
 * unit compiled for that ISA. The tag is part of every native symbol's
 * name, so the linker can never hand a native body to a portable caller.
 * @{
 */
struct Portable
{
};
struct Avx2
{
};
struct Avx512
{
};
/** @} */

/** 64-bit lane word (the scalar dispatch target). */
using W64 = std::uint64_t;

#if defined(__GNUC__) || defined(__clang__)
/** 256-bit lane word: four 64-bit elements stepped elementwise. */
using W256 __attribute__((vector_size(32))) = std::uint64_t;
/** 512-bit lane word: eight 64-bit elements stepped elementwise. */
using W512 __attribute__((vector_size(64))) = std::uint64_t;
#else
using W256 = std::uint64_t;
using W512 = std::uint64_t;
#endif

/** CPUID probe: the widest width with native SIMD backing. */
Width detectWidth();

/**
 * The process-wide dispatch width. Defaults to detectWidth() on first
 * use; batch decoders latch it at construction.
 */
Width activeWidth();

/** Override the dispatch width (CLI/env plumbing and tests). */
void setActiveWidth(Width w);

/**
 * CPUID probe: whether this CPU executes @p w's ISA — AVX2 for V256,
 * AVX-512F for V512, exactly the features detectWidth() probes. Always
 * true for Scalar.
 */
bool cpuSupports(Width w);

/**
 * Whether a lane engine latched to @p w runs a native-ISA build: the
 * build compiled one (an x86-64 target whose compiler accepts the
 * flag), cpuSupports(w), and no test forced the portable build. A
 * 64-bit word is native everywhere. Decoders latch this at
 * construction, next to the width.
 */
bool nativeEngine(Width w);

/**
 * Tests only: make decoders built from now on step every width through
 * the portable build (true), or natively where nativeEngine() allows
 * (false, the default). Neither the CLI, the environment nor any config
 * reaches it; it exists so tests can run one batch through both builds.
 */
void setPortableForTest(bool portable);

/** Canonical token of @p w: "scalar", "v256" or "v512". */
const char *widthName(Width w);

/**
 * Element accessors bridging the lane word types: a plain uint64_t and
 * the multi-element vectors, plus the element shifts a mesh whose rows
 * run across elements reads its north/south neighbours with. Batch
 * stepping code is written against these, so one templated
 * implementation serves every width. They are
 * always inlined: an out-of-line copy emitted by a native-ISA unit
 * would share its name with the portable one, and the linker could
 * keep the native copy for every caller.
 * @{
 */
#if defined(__GNUC__) || defined(__clang__)
#define NISQPP_LANE_INLINE [[gnu::always_inline]] inline
#else
#define NISQPP_LANE_INLINE inline
#endif

template <typename W>
constexpr int
elementsOf()
{
    return static_cast<int>(sizeof(W) / sizeof(std::uint64_t));
}

template <typename W>
NISQPP_LANE_INLINE std::uint64_t
elemOf(const W &w, int el)
{
    if constexpr (sizeof(W) == sizeof(std::uint64_t)) {
        (void)el;
        return w;
    } else {
        return w[el];
    }
}

template <typename W>
NISQPP_LANE_INLINE void
orElem(W &w, int el, std::uint64_t v)
{
    if constexpr (sizeof(W) == sizeof(std::uint64_t)) {
        (void)el;
        w |= v;
    } else {
        w[el] |= v;
    }
}

template <typename W>
NISQPP_LANE_INLINE void
andElem(W &w, int el, std::uint64_t v)
{
    if constexpr (sizeof(W) == sizeof(std::uint64_t)) {
        (void)el;
        w &= v;
    } else {
        w[el] &= v;
    }
}

template <typename W>
NISQPP_LANE_INLINE bool
anyW(const W &w)
{
    if constexpr (sizeof(W) == sizeof(std::uint64_t))
        return w != 0;
    else {
        std::uint64_t acc = 0;
        for (int el = 0; el < elementsOf<W>(); ++el)
            acc |= w[el];
        return acc != 0;
    }
}

/**
 * @p m in every element where @p w and @p m share a bit, zero in the
 * others: one whole-word compare rather than a loop over elements.
 */
template <typename W>
NISQPP_LANE_INLINE W
maskWhereAny(const W &w, const W &m)
{
    if constexpr (elementsOf<W>() == 1)
        return (w & m) != 0 ? m : W{};
    else
        return (W)((w & m) != W{}) & m;
}

/**
 * One-element shifts across a run of lane words, for data laid out
 * element-major (item i of the run in element i % E of word i / E).
 * nextElems(w, next) is the word one item further on: elements 1..E-1
 * of @p w, then element 0 of @p next. prevElems(prev, w) is the word
 * one item back: element E-1 of @p prev, then elements 0..E-2 of @p w.
 * For the 64-bit word (E = 1) they return @p next and @p prev.
 */
template <typename W>
NISQPP_LANE_INLINE W
nextElems(const W &w, const W &next)
{
    if constexpr (elementsOf<W>() == 1) {
        (void)w;
        return next;
    } else if constexpr (elementsOf<W>() == 4) {
#if defined(__clang__)
        return __builtin_shufflevector(w, next, 1, 2, 3, 4);
#else
        return __builtin_shuffle(w, next, W{1, 2, 3, 4});
#endif
    } else {
        static_assert(elementsOf<W>() == 8, "lane word of 1, 4 or 8");
#if defined(__clang__)
        return __builtin_shufflevector(w, next, 1, 2, 3, 4, 5, 6, 7, 8);
#else
        return __builtin_shuffle(w, next, W{1, 2, 3, 4, 5, 6, 7, 8});
#endif
    }
}

template <typename W>
NISQPP_LANE_INLINE W
prevElems(const W &prev, const W &w)
{
    if constexpr (elementsOf<W>() == 1) {
        (void)w;
        return prev;
    } else if constexpr (elementsOf<W>() == 4) {
#if defined(__clang__)
        return __builtin_shufflevector(prev, w, 3, 4, 5, 6);
#else
        return __builtin_shuffle(prev, w, W{3, 4, 5, 6});
#endif
    } else {
        static_assert(elementsOf<W>() == 8, "lane word of 1, 4 or 8");
#if defined(__clang__)
        return __builtin_shufflevector(prev, w, 7, 8, 9, 10, 11, 12, 13,
                                       14);
#else
        return __builtin_shuffle(prev, w,
                                 W{7, 8, 9, 10, 11, 12, 13, 14});
#endif
    }
}
/** @} */

} // namespace simd
} // namespace nisqpp

#endif // NISQPP_COMMON_SIMD_HH
