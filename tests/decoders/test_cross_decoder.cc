/**
 * @file Cross-decoder integration tests: relative accuracy ordering of
 * the software decoders on identical error streams.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "decoders/greedy_decoder.hh"
#include "support/lut_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

/** Count failures of @p dec on a fixed seeded error stream. */
int
failures(Decoder &dec, const SurfaceLattice &lat, double p, int trials,
         std::uint64_t seed)
{
    const NoiseModel model = NoiseModel::dephasing(p);
    Rng rng(seed);
    int fails = 0;
    for (int t = 0; t < trials; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        fails += classifyResidual(st, ErrorType::Z).failed();
    }
    return fails;
}

TEST(CrossDecoder, LutMatchesOrBeatsMwpmAtD3)
{
    // The exhaustive LUT is a minimum-weight decoder; at d=3 it should
    // be statistically comparable to MWPM on the same stream.
    SurfaceLattice lat(3);
    LutDecoder lut(lat, ErrorType::Z);
    MwpmDecoder mwpm(lat, ErrorType::Z);
    const int f_lut = failures(lut, lat, 0.05, 3000, 77);
    const int f_mwpm = failures(mwpm, lat, 0.05, 3000, 77);
    EXPECT_LE(f_lut, f_mwpm + 30);
}

TEST(CrossDecoder, MwpmBeatsGreedyAtScale)
{
    SurfaceLattice lat(7);
    MwpmDecoder mwpm(lat, ErrorType::Z);
    GreedyDecoder greedy(lat, ErrorType::Z);
    const int f_mwpm = failures(mwpm, lat, 0.06, 2000, 99);
    const int f_greedy = failures(greedy, lat, 0.06, 2000, 99);
    EXPECT_LE(f_mwpm, f_greedy + 20);
}

TEST(CrossDecoder, EveryDecoderSuppressesAtLowRate)
{
    // At p well below threshold, every decoder must beat the physical
    // error rate at d=5 (PL < p x trials).
    SurfaceLattice lat(5);
    std::vector<std::unique_ptr<Decoder>> decoders;
    decoders.push_back(
        std::make_unique<MwpmDecoder>(lat, ErrorType::Z));
    decoders.push_back(
        std::make_unique<GreedyDecoder>(lat, ErrorType::Z));
    decoders.push_back(
        std::make_unique<UnionFindDecoder>(lat, ErrorType::Z));
    const double p = 0.01;
    const int trials = 2000;
    for (auto &dec : decoders) {
        const int f = failures(*dec, lat, p, trials, 1234);
        EXPECT_LT(f, static_cast<int>(p * trials)) << dec->name();
    }
}

} // namespace
} // namespace nisqpp
