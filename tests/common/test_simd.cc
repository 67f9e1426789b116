/** @file Runtime SIMD dispatch: the width parser shared by --simd and
 * NISQPP_SIMD (a bad env value warns and keeps the fallback width),
 * and the shared lane-word element accessors behave identically at
 * every width. */

#include <gtest/gtest.h>


#include "common/simd.hh"
#include "engine/knobs.hh"
#include "support/scoped_env.hh"

namespace nisqpp {
namespace {

using knobs::Parse;

TEST(Simd, ParseWidthAcceptsTheThreeNames)
{
    simd::Width w = simd::Width::Scalar;
    EXPECT_EQ(knobs::width("scalar", w), Parse::Ok);
    EXPECT_EQ(w, simd::Width::Scalar);
    EXPECT_EQ(knobs::width("v256", w), Parse::Ok);
    EXPECT_EQ(w, simd::Width::V256);
    EXPECT_EQ(knobs::width("v512", w), Parse::Ok);
    EXPECT_EQ(w, simd::Width::V512);
}

TEST(Simd, ParseWidthRejectsEverythingElse)
{
    simd::Width w = simd::Width::V256;
    for (const char *bad : {"", "avx2", "avx512", "256", "V256",
                            "scalar ", " v512", "v1024"}) {
        EXPECT_EQ(knobs::width(bad, w), Parse::OutOfRange)
            << "'" << bad << "'";
        EXPECT_EQ(w, simd::Width::V256) << "'" << bad
                                        << "' clobbered the out-param";
    }
}

TEST(Simd, WidthNameRoundTrips)
{
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        simd::Width parsed = simd::Width::Scalar;
        EXPECT_EQ(knobs::width(simd::widthName(w), parsed), Parse::Ok);
        EXPECT_EQ(parsed, w);
    }
}

TEST(Simd, EnvUnsetKeepsFallback)
{
    EXPECT_EQ(envValue(knobs::simdWidth, nullptr, simd::Width::Scalar),
              simd::Width::Scalar);
    EXPECT_EQ(envValue(knobs::simdWidth, nullptr, simd::Width::V512),
              simd::Width::V512);
}

TEST(Simd, EnvValidValueIsUsed)
{
    EXPECT_EQ(envValue(knobs::simdWidth, "v256", simd::Width::Scalar),
              simd::Width::V256);
}

TEST(Simd, EnvInvalidValueWarnsAndKeepsFallback)
{
    // Warn-and-ignore, like every env twin: a malformed value must
    // never change behavior, only print a warning.
    for (const char *bad : {"avx2", "512", "v256 ", "fastest"})
        EXPECT_EQ(envValue(knobs::simdWidth, bad, simd::Width::V256),
                  simd::Width::V256)
            << "'" << bad << "'";
}

TEST(Simd, ActiveWidthLatchesAndRestores)
{
    const simd::Width before = simd::activeWidth();
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        simd::setActiveWidth(w);
        EXPECT_EQ(simd::activeWidth(), w);
    }
    simd::setActiveWidth(before);
    EXPECT_EQ(simd::activeWidth(), before);
}

TEST(Simd, DetectWidthIsAValidWidth)
{
    const simd::Width w = simd::detectWidth();
    EXPECT_TRUE(w == simd::Width::Scalar || w == simd::Width::V256 ||
                w == simd::Width::V512);
}

TEST(Simd, DetectWidthIsTheWidestTheCpuSupports)
{
    EXPECT_TRUE(simd::cpuSupports(simd::Width::Scalar));
    const simd::Width w = simd::detectWidth();
    EXPECT_TRUE(simd::cpuSupports(w) || w == simd::Width::V256)
        << simd::widthName(w);
    if (w != simd::Width::V512) {
        EXPECT_FALSE(simd::cpuSupports(simd::Width::V512));
    }
}

TEST(Simd, NativeEngineNeedsTheCpuAndTheBuild)
{
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        if (simd::nativeEngine(w)) {
            EXPECT_TRUE(simd::cpuSupports(w)) << simd::widthName(w);
        }
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
        // x86-64 builds compile both native units.
        EXPECT_EQ(simd::nativeEngine(w), simd::cpuSupports(w))
            << simd::widthName(w);
#endif
    }
    // The 64-bit word is native everywhere; the test switch moves only
    // the wide words to their portable build.
    simd::setPortableForTest(true);
    EXPECT_TRUE(simd::nativeEngine(simd::Width::Scalar));
    EXPECT_FALSE(simd::nativeEngine(simd::Width::V256));
    EXPECT_FALSE(simd::nativeEngine(simd::Width::V512));
    simd::setPortableForTest(false);
}

/** The element accessors must agree across all three word types. */
template <typename W>
void
exerciseAccessors()
{
    constexpr int elements = simd::elementsOf<W>();
    EXPECT_EQ(elements, static_cast<int>(sizeof(W) / 8));

    W w{};
    EXPECT_FALSE(simd::anyW(w));
    for (int el = 0; el < elements; ++el)
        EXPECT_EQ(simd::elemOf(w, el), 0u);

    simd::orElem(w, 0, 0x5ULL);
    simd::orElem(w, elements - 1, 0xa0ULL);
    simd::orElem(w, elements - 1, 0x0bULL);
    EXPECT_TRUE(simd::anyW(w));
    EXPECT_EQ(simd::elemOf(w, 0),
              elements == 1 ? 0xafULL : 0x5ULL);
    EXPECT_EQ(simd::elemOf(w, elements - 1),
              elements == 1 ? 0xafULL : 0xabULL);
    for (int el = 1; el + 1 < elements; ++el)
        EXPECT_EQ(simd::elemOf(w, el), 0u);
}

TEST(Simd, ElementAccessorsAgreeAcrossWordTypes)
{
    exerciseAccessors<simd::W64>();
    exerciseAccessors<simd::W256>();
    exerciseAccessors<simd::W512>();
}

} // namespace
} // namespace nisqpp
