/**
 * @file Tests reproducing paper Table I: benchmark qubit counts and
 * T counts match the paper exactly; total gates match under the
 * paper's 17-gate Toffoli budget (see circuits/decompose.hh).
 */

#include <gtest/gtest.h>

#include "circuits/benchmarks.hh"
#include "circuits/decompose.hh"

namespace nisqpp {
namespace {

struct TableOneRow
{
    const char *name;
    int qubits;
    std::size_t totalGatesPaper;
    std::size_t tGates;
};

/** The paper's Table I. */
constexpr TableOneRow kTableOne[] = {
    {"takahashi_adder", 40, 740, 266},
    {"barenco_half_dirty_toffoli", 39, 1224, 504},
    {"cnu_half_borrowed", 37, 1156, 476},
    {"cnx_log_depth", 39, 629, 259},
    {"cuccaro_adder", 42, 821, 280},
};

TEST(Benchmarks, TableOneQubitAndTCounts)
{
    const auto suite = tableOneBenchmarks();
    ASSERT_EQ(suite.size(), 5u);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name(), kTableOne[i].name);
        EXPECT_EQ(suite[i].numQubits(), kTableOne[i].qubits)
            << suite[i].name();
        EXPECT_EQ(decomposedTCount(suite[i]), kTableOne[i].tGates)
            << suite[i].name();
    }
}

TEST(Benchmarks, TableOneTotalGatesUnderPaperBudget)
{
    const auto suite = tableOneBenchmarks();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(
            decomposedGateCount(suite[i], kToffoliGatesPaper),
            kTableOne[i].totalGatesPaper)
            << suite[i].name();
    }
}

TEST(Benchmarks, CuccaroStructure)
{
    const QCircuit qc = cuccaroAdder(20);
    EXPECT_EQ(qc.numQubits(), 42);
    EXPECT_EQ(qc.countKind(GateKind::Toffoli), 40u);
    // MAJ: 2 CNOT each; UMA: 3 CNOT + 2 X each; plus the carry CNOT.
    EXPECT_EQ(qc.countKind(GateKind::Cnot), 5u * 20 + 1);
    EXPECT_EQ(qc.countKind(GateKind::X), 2u * 20);
}

TEST(Benchmarks, TakahashiStructure)
{
    const QCircuit qc = takahashiAdder(20);
    EXPECT_EQ(qc.numQubits(), 40);
    EXPECT_EQ(qc.countKind(GateKind::Toffoli), 2u * 19);
    EXPECT_EQ(qc.countKind(GateKind::Cnot), 5u * 20 - 6);
}

TEST(Benchmarks, VChainToffoliCount)
{
    for (int k : {4, 8, 12, 20}) {
        const QCircuit qc = barencoHalfDirtyToffoli(k);
        EXPECT_EQ(qc.numQubits(), 2 * k - 1);
        EXPECT_EQ(qc.countKind(GateKind::Toffoli),
                  static_cast<std::size_t>(4 * (k - 2)));
    }
}

TEST(Benchmarks, CnxLogDepthIsLogarithmic)
{
    const QCircuit qc = cnxLogDepth(19);
    EXPECT_EQ(qc.numQubits(), 39);
    EXPECT_EQ(qc.countKind(GateKind::Toffoli), 37u);
    // Depth grows logarithmically in k (compute + apply + uncompute):
    // ~2 ceil(log2 19) + 1 = 11 Toffoli layers.
    EXPECT_LE(qc.depth(), 2 * 5 + 1);
}

TEST(Benchmarks, CnxSmallCases)
{
    const QCircuit qc2 = cnxLogDepth(2);
    EXPECT_EQ(qc2.countKind(GateKind::Toffoli), 3u); // 1+1+1
    const QCircuit qc4 = cnxLogDepth(4);
    EXPECT_EQ(qc4.countKind(GateKind::Toffoli), 7u); // 3+1+3
}

TEST(Benchmarks, AdderDepthLinear)
{
    const QCircuit a10 = cuccaroAdder(10);
    const QCircuit a20 = cuccaroAdder(20);
    EXPECT_GT(a20.depth(), a10.depth());
    EXPECT_LT(a20.depth(), 3 * a10.depth());
}

} // namespace
} // namespace nisqpp
