/** @file Draw-sequence pins of the word-packed loops: dephasing
 * sampling and measurement flips pack 64 coin results per word and XOR
 * each word in once. They must consume exactly the draws of a per-bit
 * `coin` loop, in the same order, flip exactly the same bits (leaving
 * the bits past the last qubit zero) and leave the generator in the
 * same state. */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "surface/error_state.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

/** Per-bit reference: one coin per bit, none at p <= 0 or p >= 1. */
template <typename FlipBit>
void
referenceCoins(Rng &rng, double p, int n, const FlipBit &flipBit)
{
    if (p <= 0.0)
        return;
    const std::uint64_t thresh = Rng::threshold(p);
    for (int i = 0; i < n; ++i)
        if (p >= 1.0 || rng.coin(thresh))
            flipBit(i);
}

/** Sizes with a partial last word: 13/41/145/221 data qubits. */
constexpr int kDistances[] = {3, 5, 9, 11};
constexpr double kRates[] = {0.0, 1e-3, 0.05, 0.5, 1.0};

TEST(ChannelDraws, DephasingWordsMatchPerQubitCoins)
{
    for (const int d : kDistances) {
        SurfaceLattice lat(d);
        for (const double p : kRates) {
            const std::string where =
                "d=" + std::to_string(d) + " p=" + std::to_string(p);
            const NoiseModel model = NoiseModel::dephasing(p);
            Rng seeder(0xde9 + d);
            Rng packed(0x51ab + d), perQubit(0x51ab + d);
            ErrorState got(lat), want(lat);
            for (int round = 0; round < 4; ++round) {
                // Existing errors must be XOR-composed, not overwritten.
                for (int q = 0; q < lat.numData(); ++q)
                    if (seeder.bernoulli(0.2)) {
                        got.flip(ErrorType::Z, q);
                        want.flip(ErrorType::Z, q);
                    }
                model.sample(packed, got);
                referenceCoins(perQubit, p, lat.numData(), [&](int q) {
                    want.flip(ErrorType::Z, q);
                });
                EXPECT_EQ(got.bits(ErrorType::Z), want.bits(ErrorType::Z))
                    << where;
                EXPECT_EQ(got.weight(ErrorType::X), 0) << where;
            }
            EXPECT_EQ(packed.next(), perQubit.next()) << where;
        }
    }
}

TEST(ChannelDraws, MeasurementFlipWordsMatchPerAncillaCoins)
{
    for (const int d : kDistances) {
        SurfaceLattice lat(d);
        for (const ErrorType type : {ErrorType::Z, ErrorType::X})
            for (const double q : kRates) {
                const std::string where = "d=" + std::to_string(d) +
                                          " q=" + std::to_string(q);
                const NoiseModel model = NoiseModel::dephasing(0.0, q);
                Rng seeder(0x3ea + d);
                Rng packed(0xf11b + d), perAncilla(0xf11b + d);
                Syndrome got(lat, type), want(lat, type);
                for (int round = 0; round < 4; ++round) {
                    for (int a = 0; a < got.size(); ++a)
                        if (seeder.bernoulli(0.3)) {
                            got.flip(a);
                            want.flip(a);
                        }
                    model.flipMeasurements(packed, got);
                    referenceCoins(perAncilla, q, want.size(),
                                   [&](int a) { want.flip(a); });
                    EXPECT_EQ(got, want) << where;
                }
                EXPECT_EQ(packed.next(), perAncilla.next()) << where;
            }
    }
}

} // namespace
} // namespace nisqpp
