/** @file Tests for synthesis characterization (paper Table III). */

#include <gtest/gtest.h>

#include "sfq/decoder_circuits.hh"
#include "sfq/synthesis.hh"

namespace nisqpp {
namespace {

TEST(Synthesis, SingleGateRowsMatchTableThree)
{
    // Table III: single AND/OR/NOT gates: depth 1, their cell delay,
    // area 4200, power 0.026.
    for (CellKind kind :
         {CellKind::And2, CellKind::Or2, CellKind::Not}) {
        const SynthesisReport rep =
            synthesize(singleGateNetlist(kind));
        EXPECT_EQ(rep.logicalDepth, 1);
        EXPECT_DOUBLE_EQ(rep.areaUm2, 4200.0);
        EXPECT_DOUBLE_EQ(rep.powerUw, 0.026);
        EXPECT_DOUBLE_EQ(rep.latencyCellPs,
                         cellInfo(kind).delayPs);
        EXPECT_EQ(rep.gateCount, 1u);
        EXPECT_EQ(rep.dffCount, 0u);
    }
}

TEST(Synthesis, Or7MatchesTableThreeShape)
{
    // Table III "OR GATE 7 INPUTS": logical depth 3, latency 21.6 ps
    // (3 OR2 stages).
    const SynthesisReport rep = synthesize(orNNetlist(7));
    EXPECT_EQ(rep.logicalDepth, 3);
    EXPECT_DOUBLE_EQ(rep.latencyCellPs, 3 * 7.2);
    EXPECT_EQ(rep.gateCount, 6u); // n-1 OR2 cells
    // Balancing pads the odd input with DFFs.
    EXPECT_GE(rep.dffCount, 1u);
}

TEST(Synthesis, SubcircuitDepthsNearPaper)
{
    // The paper's subcircuits synthesize to depth 5; ours land a few
    // levels deeper because the corrected protocol needs the formed /
    // fired state (src/core/mesh_lanes.hh says why). Require the same
    // small-depth regime and comparable areas.
    for (const Netlist &net :
         {growPairReqSubcircuit(), pairGrantSubcircuit(),
          pairSubcircuit()}) {
        const SynthesisReport rep = synthesize(net);
        EXPECT_GE(rep.logicalDepth, 4) << net.name();
        EXPECT_LE(rep.logicalDepth, 10) << net.name();
        EXPECT_GT(rep.areaUm2, 1e5) << net.name();
        EXPECT_LT(rep.areaUm2, 1.2e6) << net.name();
    }
}

TEST(Synthesis, ResetKeeperUsesFiveBuffers)
{
    const SynthesisReport rep = synthesize(resetKeeperSubcircuit());
    EXPECT_GE(rep.dffCount, 5u);
    EXPECT_GE(rep.gateCount, 6u); // 7-input OR tree
}

TEST(Synthesis, FullModuleWithinPaperRegime)
{
    // Table III full circuit: area 1.28 mm^2, power ~13 uW, depth 6.
    // Our module is deeper (the train-consumption and endpoint
    // absorption logic the corrected protocol needs sits on the
    // critical path) but must stay within a small constant factor on
    // every figure.
    const SynthesisReport rep = synthesize(fullDecoderModule());
    EXPECT_GE(rep.logicalDepth, 5);
    EXPECT_LE(rep.logicalDepth, 20);
    EXPECT_GT(rep.areaUm2, 0.5e6);
    EXPECT_LT(rep.areaUm2, 3.2e6);
    EXPECT_GT(rep.powerUw, 5.0);
    EXPECT_LT(rep.powerUw, 32.0);
    EXPECT_GT(rep.jjCount, 1000);
}

TEST(Synthesis, AreaIsSumOfCells)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    net.markOutput(net.andGate(net.notGate(a), net.notGate(b)), "o");
    const SynthesisReport rep = synthesize(net);
    EXPECT_DOUBLE_EQ(rep.areaUm2, 3 * 4200.0);
    EXPECT_EQ(rep.jjCount, 13 + 13 + 17);
}

TEST(Synthesis, ClockedLatencyUsesStagePeriod)
{
    const SynthesisReport rep = synthesize(orNNetlist(4));
    EXPECT_DOUBLE_EQ(rep.latencyClockedPs,
                     rep.logicalDepth * kStagePeriodPs);
}

} // namespace
} // namespace nisqpp
