/** @file Basic mesh decoder behavior: empty syndromes, configs, stats. */

#include <gtest/gtest.h>

#include "core/mesh_decoder.hh"

namespace nisqpp {
namespace {

TEST(MeshBasic, EmptySyndromeZeroCycles)
{
    SurfaceLattice lat(5);
    MeshDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    const Correction corr = dec.decode(syn);
    EXPECT_TRUE(corr.dataFlips.empty());
    EXPECT_EQ(dec.lastStats().cycles, 0);
    EXPECT_EQ(dec.lastStats().pairings, 0);
}

TEST(MeshBasic, ConfigLabels)
{
    EXPECT_EQ(MeshConfig::baseline().label(), "baseline");
    EXPECT_EQ(MeshConfig::withReset().label(), "reset");
    EXPECT_EQ(MeshConfig::withResetAndBoundary().label(),
              "reset+boundary");
    EXPECT_EQ(MeshConfig::finalDesign().label(), "final");
}

TEST(MeshBasic, NameIncludesVariant)
{
    SurfaceLattice lat(3);
    MeshDecoder dec(lat, ErrorType::Z, MeshConfig::baseline());
    EXPECT_EQ(dec.name(), "sfq-mesh[baseline]");
}

TEST(MeshBasic, StatsNanosecondsConversion)
{
    MeshDecodeStats stats;
    stats.cycles = 100;
    EXPECT_NEAR(stats.nanoseconds(), 16.272, 1e-9);
}

TEST(MeshBasic, DecodeIsDeterministic)
{
    SurfaceLattice lat(5);
    MeshDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    syn.set(1, true);
    syn.set(4, true);
    syn.set(9, true);
    const Correction c1 = dec.decode(syn);
    const int cycles1 = dec.lastStats().cycles;
    const Correction c2 = dec.decode(syn);
    EXPECT_EQ(c1.dataFlips, c2.dataFlips);
    EXPECT_EQ(dec.lastStats().cycles, cycles1);
}

TEST(MeshBasic, CycleCapScalesWithLattice)
{
    SurfaceLattice small(3), large(9);
    MeshDecoder a(small, ErrorType::Z), b(large, ErrorType::Z);
    EXPECT_LT(a.cycleCap(), b.cycleCap());
    EXPECT_GT(a.quiescenceWindow(), 0);
}

TEST(MeshBasic, SingleSyndromeWithoutBoundaryQuiesces)
{
    // One hot module and no boundary mechanism: nothing to pair with;
    // the decoder exits via the quiescence window with the syndrome
    // unresolved.
    SurfaceLattice lat(5);
    MeshDecoder dec(lat, ErrorType::Z, MeshConfig::withReset());
    Syndrome syn(lat, ErrorType::Z);
    syn.set(lat.ancillaIndex(ErrorType::Z, {4, 3}), true);
    dec.decode(syn);
    EXPECT_TRUE(dec.lastStats().quiesced);
    EXPECT_EQ(dec.lastStats().remainingHot, 1);
}

TEST(MeshBasic, SingleSyndromeWithBoundaryResolves)
{
    SurfaceLattice lat(5);
    MeshDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::Z);
    syn.set(lat.ancillaIndex(ErrorType::Z, {4, 3}), true);
    const Correction corr = dec.decode(syn);
    EXPECT_EQ(dec.lastStats().remainingHot, 0);
    EXPECT_FALSE(dec.lastStats().quiesced);
    // Chain to the nearest (west) boundary: data (4,0) and (4,2).
    EXPECT_EQ(corr.dataFlips.size(), 2u);
}

TEST(MeshBasic, RejectsWrongSyndromeType)
{
    SurfaceLattice lat(3);
    MeshDecoder dec(lat, ErrorType::Z);
    Syndrome syn(lat, ErrorType::X);
    EXPECT_DEATH(dec.decode(syn), "type");
}

TEST(MeshBasic, HugeLatticeRejected)
{
    SurfaceLattice lat(31); // grid 61, span 63 > 62
    EXPECT_DEATH(MeshDecoder(lat, ErrorType::Z), "64-bit");
}

} // namespace
} // namespace nisqpp
