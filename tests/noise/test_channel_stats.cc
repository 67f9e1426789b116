/** @file Statistical contract of every noise channel, old and new:
 * empirical X/Y/Z (and measurement-flip) marginals over >= 1e5
 * samples must sit inside a 5-sigma binomial band of the configured
 * rates. Seeds are fixed, so these never flake; a channel whose
 * sampling drifts by more than 5 sigma is a real bug. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "noise/noise_model.hh"
#include "surface/syndrome.hh"

namespace nisqpp {
namespace {

struct PauliCounts
{
    long long x = 0, y = 0, z = 0;
    long long samples = 0;
};

/** Per-round i.i.d. marginals: fresh state each round. */
PauliCounts
sampleMarginals(const NoiseModel &model, const SurfaceLattice &lat,
                long long minSamples, std::uint64_t seed)
{
    Rng rng(seed);
    ErrorState state(lat);
    PauliCounts counts;
    while (counts.samples < minSamples) {
        state.clear();
        model.sample(rng, state);
        for (int q = 0; q < lat.numData(); ++q) {
            switch (state.at(q)) {
              case Pauli::X: ++counts.x; break;
              case Pauli::Y: ++counts.y; break;
              case Pauli::Z: ++counts.z; break;
              default: break;
            }
        }
        counts.samples += lat.numData();
    }
    return counts;
}

/** |empirical - expected| <= 5 sigma of the binomial proportion. */
void
expectWithinFiveSigma(long long hits, long long samples,
                      double expected, const char *label)
{
    const double n = static_cast<double>(samples);
    const double empirical = static_cast<double>(hits) / n;
    const double sigma =
        std::sqrt(std::max(expected * (1.0 - expected), 1e-12) / n);
    EXPECT_LE(std::abs(empirical - expected), 5.0 * sigma)
        << label << ": empirical " << empirical << " vs expected "
        << expected << " (5 sigma = " << 5.0 * sigma << ", n = "
        << samples << ")";
}

constexpr long long kMinSamples = 100000;

TEST(ChannelStats, DephasingChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.07;
    const NoiseModel model = NoiseModel::dephasing(p);
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd0);
    ASSERT_GE(c.samples, kMinSamples);
    expectWithinFiveSigma(c.z, c.samples, p, "dephasing Z");
    EXPECT_EQ(c.x, 0);
    EXPECT_EQ(c.y, 0);
}

TEST(ChannelStats, DepolarizingChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.09;
    const NoiseModel model = NoiseModel::depolarizing(p);
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd1);
    expectWithinFiveSigma(c.x, c.samples, p / 3, "depolarizing X");
    expectWithinFiveSigma(c.y, c.samples, p / 3, "depolarizing Y");
    expectWithinFiveSigma(c.z, c.samples, p / 3, "depolarizing Z");
}

TEST(ChannelStats, BiasedEtaChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.08, eta = 4.0;
    const NoiseModel model = NoiseModel::biased(p, eta);
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd2);
    const double pz = p * eta / (1.0 + eta);
    const double px = p / (2.0 * (1.0 + eta));
    expectWithinFiveSigma(c.z, c.samples, pz, "biased Z");
    expectWithinFiveSigma(c.x, c.samples, px, "biased X");
    expectWithinFiveSigma(c.y, c.samples, px, "biased Y");
}

TEST(ChannelStats, BiasedEtaLimitsRecoverKnownChannels)
{
    // eta = 1/2 splits evenly (depolarizing); huge eta is dephasing.
    SurfaceLattice lat(5);
    const double p = 0.09;
    const NoiseModel depol = NoiseModel::biased(p, 0.5);
    PauliCounts c = sampleMarginals(depol, lat, kMinSamples, 0xd3);
    expectWithinFiveSigma(c.x, c.samples, p / 3, "eta=1/2 X");
    expectWithinFiveSigma(c.z, c.samples, p / 3, "eta=1/2 Z");

    const NoiseModel deph = NoiseModel::biased(p, 1e9);
    c = sampleMarginals(deph, lat, kMinSamples, 0xd4);
    expectWithinFiveSigma(c.z, c.samples, p, "eta=inf Z");
}

TEST(ChannelStats, ErasureChannel)
{
    SurfaceLattice lat(5);
    const double p = 0.06;
    const NoiseModel model = NoiseModel::erasure(p);

    // Marginals: an erased qubit lands on each Pauli (including I)
    // with probability p/4.
    const PauliCounts c =
        sampleMarginals(model, lat, kMinSamples, 0xd5);
    expectWithinFiveSigma(c.x, c.samples, p / 4, "erasure X");
    expectWithinFiveSigma(c.y, c.samples, p / 4, "erasure Y");
    expectWithinFiveSigma(c.z, c.samples, p / 4, "erasure Z");

    // Mark rate: every erased qubit is flagged, Pauli or not.
    Rng rng(0xd6);
    ErrorState state(lat);
    long long marks = 0, samples = 0;
    while (samples < kMinSamples) {
        state.clear();
        model.clearErasureMarks();
        model.sample(rng, state);
        marks += model.erasureMarks().popcount();
        samples += lat.numData();
    }
    expectWithinFiveSigma(marks, samples, p, "erasure marks");
}

TEST(ChannelStats, MeasurementFlipChannel)
{
    SurfaceLattice lat(5);
    const double q = 0.05;
    const NoiseModel model = NoiseModel::dephasing(0.0, q);
    Rng rng(0xd7);
    Syndrome syn(lat, ErrorType::Z);
    long long flips = 0, samples = 0;
    while (samples < kMinSamples) {
        syn.clear();
        model.flipMeasurements(rng, syn);
        flips += syn.weight();
        samples += syn.size();
    }
    ASSERT_GE(samples, kMinSamples);
    expectWithinFiveSigma(flips, samples, q, "measurement flips");
}

TEST(ChannelStats, PerfectMeasurementDrawsNothing)
{
    // q = 0 must not advance the RNG: the draw-sequence guarantee
    // behind byte-identical perfect-measurement goldens.
    SurfaceLattice lat(3);
    const NoiseModel model = NoiseModel::dephasing(0.1, 0.0);
    Rng a(42), b(42);
    Syndrome syn(lat, ErrorType::Z);
    model.flipMeasurements(a, syn);
    EXPECT_EQ(syn.weight(), 0);
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace nisqpp
