#include "common/simd.hh"

namespace nisqpp {
namespace simd {

namespace {

Width &
activeSlot()
{
    static Width w = detectWidth();
    return w;
}

bool portableForTest = false;

} // namespace

Width
detectWidth()
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    if (cpuSupports(Width::V512))
        return Width::V512;
    if (cpuSupports(Width::V256))
        return Width::V256;
    return Width::Scalar;
#else
    // Non-x86 (or non-GNU) builds: the vector types still compile but
    // there is no cheap probe for native backing; default to the
    // 256-bit word, which lowers to NEON / scalar pairs acceptably.
    return Width::V256;
#endif
}

bool
cpuSupports(Width w)
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    switch (w) {
      case Width::Scalar:
        return true;
      case Width::V256:
        return __builtin_cpu_supports("avx2");
      case Width::V512:
        return __builtin_cpu_supports("avx512f");
    }
    return false;
#else
    return w == Width::Scalar;
#endif
}

bool
nativeEngine(Width w)
{
    // Which native units the build compiled (see CMakeLists.txt).
    bool built = true;
#ifndef NISQPP_NATIVE_AVX2
    built &= w != Width::V256;
#endif
#ifndef NISQPP_NATIVE_AVX512
    built &= w != Width::V512;
#endif
    return w == Width::Scalar ||
           (built && !portableForTest && cpuSupports(w));
}

void
setPortableForTest(bool portable)
{
    portableForTest = portable;
}

Width
activeWidth()
{
    return activeSlot();
}

void
setActiveWidth(Width w)
{
    activeSlot() = w;
}

const char *
widthName(Width w)
{
    switch (w) {
      case Width::Scalar:
        return "scalar";
      case Width::V256:
        return "v256";
      case Width::V512:
        return "v512";
    }
    return "scalar";
}

} // namespace simd
} // namespace nisqpp
