/** @file Tests for the netlist IR. */

#include <gtest/gtest.h>

#include <string>

#include "sfq/netlist.hh"

namespace nisqpp {
namespace {

TEST(Netlist, BuildAndQuery)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    const NodeId g = net.andGate(a, b);
    net.markOutput(g, "out");
    EXPECT_EQ(net.numNodes(), 3u);
    EXPECT_EQ(net.inputs().size(), 2u);
    EXPECT_EQ(net.outputs().size(), 1u);
    EXPECT_EQ(net.countKind(CellKind::And2), 1u);
}

TEST(Netlist, TopoOrderRespectsEdges)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.notGate(a);
    const NodeId c = net.notGate(b);
    net.markOutput(c, "o");
    const auto order = net.topoOrder();
    std::vector<int> pos(net.numNodes());
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    EXPECT_LT(pos[a], pos[b]);
    EXPECT_LT(pos[b], pos[c]);
}

TEST(Netlist, StateFeedbackBreaksCycles)
{
    Netlist net("t");
    const NodeId in = net.addInput("in");
    const NodeId latch = net.addStateDff("latch");
    const NodeId next = net.orGate(latch, in);
    net.connectFeedback(latch, next);
    net.markOutput(latch, "o");
    EXPECT_NO_THROW(net.topoOrder());
    EXPECT_EQ(net.topoOrder().size(), net.numNodes());
}

TEST(Netlist, OrTreeCounts)
{
    Netlist net("t");
    std::vector<NodeId> ins;
    for (char i = '0'; i < '7'; ++i)
        ins.push_back(net.addInput(std::string{'i', i}));
    net.markOutput(net.orTree(ins), "o");
    // n-input OR tree uses n-1 two-input gates.
    EXPECT_EQ(net.countKind(CellKind::Or2), 6u);
}

TEST(Netlist, AndTreeSingleInputPassthrough)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    EXPECT_EQ(net.andTree({a}), a);
    EXPECT_EQ(net.countKind(CellKind::And2), 0u);
}

TEST(Netlist, ArityChecked)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    EXPECT_DEATH(net.addGate(CellKind::And2, {a}), "arity");
}

} // namespace
} // namespace nisqpp
