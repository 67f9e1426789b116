/**
 * @file Tests that the Fig. 3 stabilizer circuits, executed on the
 * Pauli-frame simulator, reproduce direct parity extraction.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "support/stabilizer_circuit.hh"

namespace nisqpp {
namespace {

class CircuitParam : public ::testing::TestWithParam<int>
{
};

TEST_P(CircuitParam, MatchesDirectExtractionOnRandomErrors)
{
    // Property test: for random depolarizing errors, running the full
    // stabilizer measurement circuits gives exactly the direct-parity
    // syndrome, for both ancilla families.
    const int d = GetParam();
    SurfaceLattice lat(d);
    StabilizerCircuit circuit(lat);
    const NoiseModel model = NoiseModel::depolarizing(0.15);
    Rng rng(0xfeedULL + d);
    for (int trial = 0; trial < 100; ++trial) {
        ErrorState st(lat);
        model.sample(rng, st);
        for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
            const Syndrome via_circuit = circuit.extract(st, type);
            const Syndrome direct = extractSyndrome(st, type);
            ASSERT_EQ(via_circuit, direct)
                << "d=" << d << " trial=" << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, CircuitParam,
                         ::testing::Values(2, 3, 5, 7));

TEST(StabilizerCircuit, ScheduleShape)
{
    SurfaceLattice lat(3);
    StabilizerCircuit circuit(lat);
    // Each X-ancilla schedule: reset, H, CNOTs, H, measure.
    int measures = 0, hs = 0, resets = 0;
    for (const auto &op : circuit.schedule(ErrorType::Z)) {
        measures += op.kind == StabilizerCircuit::OpKind::Measure;
        hs += op.kind == StabilizerCircuit::OpKind::H;
        resets += op.kind == StabilizerCircuit::OpKind::Reset;
    }
    EXPECT_EQ(measures, lat.numXAncilla());
    EXPECT_EQ(resets, lat.numXAncilla());
    EXPECT_EQ(hs, 2 * lat.numXAncilla());
    // Z-ancilla schedules have no Hadamards.
    for (const auto &op : circuit.schedule(ErrorType::X))
        EXPECT_NE(op.kind, StabilizerCircuit::OpKind::H);
}

TEST(StabilizerCircuit, MeasurementIsNondestructiveToData)
{
    // Measuring the stabilizers must not alter the data error pattern.
    SurfaceLattice lat(3);
    StabilizerCircuit circuit(lat);
    ErrorState st(lat);
    st.inject(lat.dataIndex({2, 2}), Pauli::Z);

    PauliFrame frame(lat.numSites());
    circuit.loadErrors(frame, st);
    circuit.measure(frame, ErrorType::Z);
    // The data qubit's Z frame is intact after the round.
    EXPECT_EQ(frame.frame(lat.siteIndex({2, 2})), Pauli::Z);
}

TEST(StabilizerCircuit, RepeatedRoundsAreStable)
{
    // With a static error pattern, consecutive measurement rounds give
    // identical syndromes (perfect-measurement regime).
    SurfaceLattice lat(5);
    StabilizerCircuit circuit(lat);
    ErrorState st(lat);
    st.inject(lat.dataIndex({0, 2}), Pauli::Z);
    st.inject(lat.dataIndex({3, 3}), Pauli::Z);

    PauliFrame frame(lat.numSites());
    circuit.loadErrors(frame, st);
    const Syndrome first = circuit.measure(frame, ErrorType::Z);
    const Syndrome second = circuit.measure(frame, ErrorType::Z);
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace nisqpp
