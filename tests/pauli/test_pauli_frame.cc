/** @file Tests for the Pauli-frame Clifford simulator. */

#include <gtest/gtest.h>

#include "support/pauli_frame.hh"

namespace nisqpp {
namespace {

TEST(PauliFrame, InjectAndRead)
{
    PauliFrame f(3);
    f.inject(1, Pauli::Y);
    EXPECT_EQ(f.frame(0), Pauli::I);
    EXPECT_EQ(f.frame(1), Pauli::Y);
    f.inject(1, Pauli::X);
    EXPECT_EQ(f.frame(1), Pauli::Z);
}

TEST(PauliFrame, HadamardSwapsXZ)
{
    PauliFrame f(1);
    f.inject(0, Pauli::X);
    f.applyH(0);
    EXPECT_EQ(f.frame(0), Pauli::Z);
    f.applyH(0);
    EXPECT_EQ(f.frame(0), Pauli::X);
}

TEST(PauliFrame, HadamardFixesY)
{
    PauliFrame f(1);
    f.inject(0, Pauli::Y);
    f.applyH(0);
    EXPECT_EQ(f.frame(0), Pauli::Y);
}

TEST(PauliFrame, PhaseGateTurnsXIntoY)
{
    PauliFrame f(1);
    f.inject(0, Pauli::X);
    f.applyS(0);
    EXPECT_EQ(f.frame(0), Pauli::Y);
    // Z is unaffected.
    PauliFrame g(1);
    g.inject(0, Pauli::Z);
    g.applyS(0);
    EXPECT_EQ(g.frame(0), Pauli::Z);
}

/**
 * CNOT conjugation across all 16 two-qubit Pauli inputs, checked
 * against the standard propagation rules: X on control copies to
 * target, Z on target copies to control.
 */
class CnotConjugation
    : public ::testing::TestWithParam<std::tuple<Pauli, Pauli>>
{
};

TEST_P(CnotConjugation, MatchesRules)
{
    const auto [pc, pt] = GetParam();
    PauliFrame f(2);
    f.inject(0, pc);
    f.inject(1, pt);
    f.applyCnot(0, 1);
    const bool cx = hasX(pc);
    const bool cz = hasZ(pc) ^ hasZ(pt);
    const bool tx = hasX(pt) ^ hasX(pc);
    const bool tz = hasZ(pt);
    EXPECT_EQ(f.frame(0), fromXZ(cx, cz));
    EXPECT_EQ(f.frame(1), fromXZ(tx, tz));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CnotConjugation,
    ::testing::Combine(::testing::Values(Pauli::I, Pauli::X, Pauli::Y,
                                         Pauli::Z),
                       ::testing::Values(Pauli::I, Pauli::X, Pauli::Y,
                                         Pauli::Z)));

TEST(PauliFrame, CzSymmetric)
{
    PauliFrame f(2);
    f.inject(0, Pauli::X);
    f.applyCz(0, 1);
    EXPECT_EQ(f.frame(0), Pauli::X);
    EXPECT_EQ(f.frame(1), Pauli::Z);

    PauliFrame g(2);
    g.inject(1, Pauli::X);
    g.applyCz(0, 1);
    EXPECT_EQ(g.frame(0), Pauli::Z);
    EXPECT_EQ(g.frame(1), Pauli::X);
}

TEST(PauliFrame, MeasurementFlipsOnXComponent)
{
    PauliFrame f(2);
    f.inject(0, Pauli::X);
    f.inject(1, Pauli::Z);
    EXPECT_TRUE(f.measureZ(0));
    EXPECT_FALSE(f.measureZ(1));
    // Measurement collapses the frame.
    EXPECT_EQ(f.frame(0), Pauli::I);
    EXPECT_EQ(f.frame(1), Pauli::I);
}

TEST(PauliFrame, ResetClearsQubit)
{
    PauliFrame f(1);
    f.inject(0, Pauli::Y);
    f.reset(0);
    EXPECT_EQ(f.frame(0), Pauli::I);
}

TEST(PauliFrame, ClearWholeFrame)
{
    PauliFrame f(4);
    for (std::size_t q = 0; q < 4; ++q)
        f.inject(q, Pauli::X);
    f.clear();
    for (std::size_t q = 0; q < 4; ++q)
        EXPECT_EQ(f.frame(q), Pauli::I);
}

} // namespace
} // namespace nisqpp
