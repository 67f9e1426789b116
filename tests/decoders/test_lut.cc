/** @file Tests for the exhaustive lookup-table decoder. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "support/lut_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

TEST(Lut, TableCoversAllSyndromes)
{
    SurfaceLattice lat(3);
    LutDecoder dec(lat, ErrorType::Z);
    EXPECT_EQ(dec.tableSize(), 64u); // 2^(d(d-1)) = 2^6
}

TEST(Lut, CorrectsAllWeightOneErrors)
{
    SurfaceLattice lat(3);
    for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
        LutDecoder dec(lat, type);
        for (int q = 0; q < lat.numData(); ++q) {
            ErrorState st(lat);
            st.flip(type, q);
            const Correction corr =
                dec.decode(extractSyndrome(st, type));
            corr.applyTo(st, type);
            EXPECT_FALSE(classifyResidual(st, type).failed());
        }
    }
}

TEST(Lut, CorrectionIsMinimumWeight)
{
    // For every syndrome, the LUT correction weight is no larger than
    // the MWPM correction weight (the LUT is exhaustively optimal).
    SurfaceLattice lat(3);
    LutDecoder lut(lat, ErrorType::Z);
    MwpmDecoder mwpm(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.2);
    Rng rng(0x107);
    for (int t = 0; t < 300; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Syndrome syn = extractSyndrome(st, ErrorType::Z);
        const auto lc = lut.decode(syn);
        const auto mc = mwpm.decode(syn);
        ASSERT_LE(lc.dataFlips.size(), mc.dataFlips.size());
    }
}

TEST(Lut, AlwaysClearsSyndrome)
{
    SurfaceLattice lat(3);
    LutDecoder dec(lat, ErrorType::Z);
    const NoiseModel model = NoiseModel::dephasing(0.25);
    Rng rng(0xabc);
    for (int t = 0; t < 300; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        const Correction corr =
            dec.decode(extractSyndrome(st, ErrorType::Z));
        corr.applyTo(st, ErrorType::Z);
        ASSERT_EQ(extractSyndrome(st, ErrorType::Z).weight(), 0);
    }
}

TEST(Lut, RejectsLargeLattices)
{
    SurfaceLattice lat(5);
    EXPECT_DEATH(LutDecoder(lat, ErrorType::Z), "brute force");
}

} // namespace
} // namespace nisqpp
