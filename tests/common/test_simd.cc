/** @file Runtime SIMD dispatch: NISQPP_SIMD validation must warn and
 * keep the fallback width (exactly like NISQPP_BATCH), parseWidth is
 * the hard-failing CLI contract, and the shared lane-word element
 * accessors behave identically at every width. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/simd.hh"

namespace nisqpp {
namespace {

/** Scoped NISQPP_SIMD override restoring the prior value on exit. */
class SimdEnv
{
  public:
    explicit SimdEnv(const char *value)
    {
        const char *prior = std::getenv("NISQPP_SIMD");
        if (prior) {
            saved_ = prior;
            hadValue_ = true;
        }
        if (value)
            setenv("NISQPP_SIMD", value, 1);
        else
            unsetenv("NISQPP_SIMD");
    }
    ~SimdEnv()
    {
        if (hadValue_)
            setenv("NISQPP_SIMD", saved_.c_str(), 1);
        else
            unsetenv("NISQPP_SIMD");
    }

  private:
    std::string saved_;
    bool hadValue_ = false;
};

TEST(Simd, ParseWidthAcceptsTheThreeNames)
{
    simd::Width w = simd::Width::Scalar;
    EXPECT_TRUE(simd::parseWidth("scalar", w));
    EXPECT_EQ(w, simd::Width::Scalar);
    EXPECT_TRUE(simd::parseWidth("v256", w));
    EXPECT_EQ(w, simd::Width::V256);
    EXPECT_TRUE(simd::parseWidth("v512", w));
    EXPECT_EQ(w, simd::Width::V512);
}

TEST(Simd, ParseWidthRejectsEverythingElse)
{
    simd::Width w = simd::Width::V256;
    for (const char *bad : {"", "avx2", "avx512", "256", "V256",
                            "scalar ", " v512", "v1024"}) {
        EXPECT_FALSE(simd::parseWidth(bad, w)) << "'" << bad << "'";
        EXPECT_EQ(w, simd::Width::V256) << "'" << bad
                                        << "' clobbered the out-param";
    }
}

TEST(Simd, WidthNameRoundTrips)
{
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        simd::Width parsed = simd::Width::Scalar;
        EXPECT_TRUE(simd::parseWidth(simd::widthName(w), parsed));
        EXPECT_EQ(parsed, w);
    }
}

TEST(Simd, EnvUnsetKeepsFallback)
{
    SimdEnv env(nullptr);
    EXPECT_EQ(simd::widthFromEnv(simd::Width::Scalar),
              simd::Width::Scalar);
    EXPECT_EQ(simd::widthFromEnv(simd::Width::V512),
              simd::Width::V512);
}

TEST(Simd, EnvValidValueIsUsed)
{
    SimdEnv env("v256");
    EXPECT_EQ(simd::widthFromEnv(simd::Width::Scalar),
              simd::Width::V256);
}

TEST(Simd, EnvInvalidValueWarnsAndKeepsFallback)
{
    // Warn-and-ignore, exactly like NISQPP_BATCH: a malformed value
    // must never change behavior, only print a warning.
    for (const char *bad : {"avx2", "512", "v256 ", "fastest"}) {
        SimdEnv env(bad);
        EXPECT_EQ(simd::widthFromEnv(simd::Width::V256),
                  simd::Width::V256)
            << "'" << bad << "'";
    }
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
