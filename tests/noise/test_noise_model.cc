/** @file NoiseModel factories, NoiseSpec dispatch, the noise layer's
 * interface semantics, and a fingerprint of every kind's draws. */

#include <gtest/gtest.h>

#include <cstdint>

#include "ckpt/checkpoint.hh"
#include "noise/noise_model.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

TEST(NoiseModel, FactoriesReportRatesAndNames)
{
    EXPECT_DOUBLE_EQ(NoiseModel::dephasing(0.05).physicalRate(), 0.05);
    EXPECT_EQ(NoiseModel::dephasing(0.05).name(), "dephasing");
    EXPECT_EQ(NoiseModel::depolarizing(0.05).name(), "depolarizing");
    EXPECT_DOUBLE_EQ(
        NoiseModel::biased(0.03, 10.0).physicalRate(), 0.03);
    EXPECT_EQ(NoiseModel::erasure(0.02).name(), "erasure");
    // q > 0 is carried in the name (telemetry provenance).
    EXPECT_NE(NoiseModel::dephasing(0.05, 0.01).name().find("meas"),
              std::string::npos);
}

TEST(NoiseModel, MeasurementFlipRateIsExposed)
{
    EXPECT_DOUBLE_EQ(
        NoiseModel::dephasing(0.05).measurementFlipRate(), 0.0);
    EXPECT_DOUBLE_EQ(
        NoiseModel::dephasing(0.05, 0.02).measurementFlipRate(), 0.02);
}

TEST(NoiseModel, ProducesXFollowsChannels)
{
    EXPECT_FALSE(NoiseModel::dephasing(0.05).producesX());
    EXPECT_TRUE(NoiseModel::depolarizing(0.05).producesX());
    EXPECT_TRUE(NoiseModel::biased(0.05, 10.0).producesX());
    EXPECT_TRUE(NoiseModel::erasure(0.05).producesX());
}

TEST(NoiseSpec, FromSpecDispatchesEveryKind)
{
    for (NoiseKind kind : noiseKindRegistry()) {
        NoiseSpec spec;
        spec.kind = kind;
        const NoiseModel model = NoiseModel::fromSpec(spec, 0.04);
        EXPECT_DOUBLE_EQ(model.physicalRate(), 0.04)
            << noiseKindName(kind);
        // Only the pure-dephasing kind is X-free (the channel
        // overrides are the single source of truth).
        EXPECT_EQ(model.producesX(), kind != NoiseKind::Dephasing)
            << noiseKindName(kind);
    }
}

TEST(NoiseSpec, RegistryNamesAreUniqueAndNonEmpty)
{
    const auto &kinds = noiseKindRegistry();
    EXPECT_EQ(kinds.size(), 4u);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        EXPECT_FALSE(noiseKindName(kinds[i]).empty());
        for (std::size_t j = i + 1; j < kinds.size(); ++j)
            EXPECT_NE(noiseKindName(kinds[i]),
                      noiseKindName(kinds[j]));
    }
}

TEST(NoiseSpec, CarriesMeasurementRateIntoModels)
{
    const NoiseSpec spec = NoiseSpec::biased(8.0).withQ(0.015);
    const NoiseModel model = NoiseModel::fromSpec(spec, 0.02);
    EXPECT_DOUBLE_EQ(model.measurementFlipRate(), 0.015);
}

/** Fold every word of @p bits into the FNV hash @p h. */
std::uint64_t
foldBits(std::uint64_t h, const PackedBits &bits)
{
    const std::size_t words =
        (bits.size() + PackedBits::kWordBits - 1) / PackedBits::kWordBits;
    return ckpt::fnv64(bits.words(), words * sizeof(PackedBits::Word), h);
}

/**
 * FNV of 256 lifetime rounds of @p model at d = 5 from a fixed seed:
 * after each round's sample and measurement flips, both error planes,
 * the flipped Z syndrome and the erasure marks (cleared each round);
 * then the generator's next draw, so no trailing draw goes unseen.
 */
std::uint64_t
drawFingerprint(const NoiseModel &model)
{
    SurfaceLattice lat(5);
    Rng rng(0xf1a9e7ULL);
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    std::uint64_t h = ckpt::kFnvBasis;
    for (int round = 0; round < 256; ++round) {
        model.sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, syn);
        model.flipMeasurements(rng, syn);
        h = foldBits(h, state.bits(ErrorType::Z));
        h = foldBits(h, state.bits(ErrorType::X));
        h = foldBits(h, syn.bits());
        h = foldBits(h, model.erasureMarks());
        model.clearErasureMarks();
    }
    const std::uint64_t last = rng.next();
    return ckpt::fnv64(&last, sizeof last, h);
}

TEST(NoiseModel, DrawSequenceFingerprint)
{
    // Every kind's exact draws, pinned: the goldens allow 0.2% on
    // fractional cells, so a changed draw order could slip past them.
    // Rows follow noiseKindRegistry(); columns are q = 0 and q = 0.02.
    const std::uint64_t expected[4][2] = {
        {0x6e2c71703710967cULL, 0xc0332440366d77dcULL},
        {0x11d28a1b1f04f7c2ULL, 0xcc2c5d61a70db11fULL},
        {0x6ecf70f96573dafeULL, 0x8d8704591578f576ULL},
        {0xf431e6bae26aee30ULL, 0xe48a196941d53f73ULL},
    };
    const double qs[] = {0.0, 0.02};
    const auto &kinds = noiseKindRegistry();
    ASSERT_EQ(kinds.size(), 4u);
    for (std::size_t k = 0; k < kinds.size(); ++k)
        for (std::size_t j = 0; j < 2; ++j) {
            NoiseSpec spec;
            spec.kind = kinds[k];
            const NoiseModel model =
                NoiseModel::fromSpec(spec.withQ(qs[j]), 0.05);
            const std::uint64_t got = drawFingerprint(model);
            EXPECT_EQ(got, expected[k][j])
                << noiseKindName(kinds[k]) << " q=" << qs[j] << " got 0x"
                << std::hex << got;
        }
}

TEST(NoiseModelDeath, RejectsBadRates)
{
    EXPECT_DEATH(NoiseModel::dephasing(-0.1), "p out of");
    EXPECT_DEATH(NoiseModel::depolarizing(1.5), "p out of");
    EXPECT_DEATH(NoiseModel::biased(0.1, -1.0), "eta");
    EXPECT_DEATH(NoiseModel::erasure(2.0), "p out of");
    EXPECT_DEATH(NoiseModel::dephasing(0.1, -0.5), "q out of");
}

} // namespace
} // namespace nisqpp
