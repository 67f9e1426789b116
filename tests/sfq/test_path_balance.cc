/** @file Tests for full path balancing (PBMap-style DFF insertion). */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "sfq/path_balance.hh"

namespace nisqpp {
namespace {

TEST(PathBalance, AlreadyBalancedUnchanged)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    net.markOutput(net.andGate(a, b), "o");
    const BalancedNetlist bal = pathBalance(net);
    EXPECT_EQ(bal.insertedDffs, 0u);
    EXPECT_EQ(bal.depth, 1);
    EXPECT_EQ(checkBalanced(bal.netlist), 1);
}

TEST(PathBalance, ShortPathGetsDff)
{
    // o = a AND (NOT b): the a-input path skips a level.
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    net.markOutput(net.andGate(a, net.notGate(b)), "o");
    const BalancedNetlist bal = pathBalance(net);
    EXPECT_EQ(bal.insertedDffs, 1u);
    EXPECT_EQ(bal.depth, 2);
    EXPECT_EQ(checkBalanced(bal.netlist), 2);
}

TEST(PathBalance, OutputsPaddedToCommonDepth)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    net.markOutput(net.notGate(a), "short");
    net.markOutput(net.notGate(net.notGate(b)), "long");
    const BalancedNetlist bal = pathBalance(net);
    EXPECT_EQ(bal.depth, 2);
    EXPECT_EQ(checkBalanced(bal.netlist), 2);
}

TEST(PathBalance, SharedChainsReduceDffs)
{
    // One source fans out to consumers at levels 2 and 3: the delay
    // chain must be shared (2 DFFs, not 3).
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    const NodeId n1 = net.notGate(b);
    const NodeId n2 = net.notGate(n1);
    // Consumers of `a` at depth 2 and 3.
    net.markOutput(net.andGate(a, n1), "o1");
    net.markOutput(net.andGate(a, n2), "o2");
    const BalancedNetlist bal = pathBalance(net);
    EXPECT_EQ(checkBalanced(bal.netlist), 3);
    // Naive insertion would use 1 (o1 path) + 2 (o2 path) + 1 (o1
    // output padding) = 4; sharing the a-chain plus slack assignment
    // must do better.
    EXPECT_LE(bal.insertedDffs, 3u);
}

TEST(PathBalance, CheckDetectsImbalance)
{
    Netlist net("t");
    const NodeId a = net.addInput("a");
    const NodeId b = net.addInput("b");
    net.markOutput(net.andGate(a, net.notGate(b)), "o");
    // Unbalanced as constructed.
    EXPECT_EQ(checkBalanced(net), -1);
}

TEST(PathBalance, RandomDagsBalance)
{
    // Property: pathBalance always yields a fully balanced netlist.
    Rng rng(0xba1a);
    for (int trial = 0; trial < 40; ++trial) {
        Netlist net("rand");
        std::vector<NodeId> pool;
        for (char i = '0'; i < '4'; ++i)
            pool.push_back(net.addInput(std::string{'i', i}));
        for (int g = 0; g < 15; ++g) {
            const NodeId x =
                pool[rng.uniformInt(pool.size())];
            const NodeId y =
                pool[rng.uniformInt(pool.size())];
            switch (rng.uniformInt(3)) {
              case 0:
                pool.push_back(net.notGate(x));
                break;
              case 1:
                if (x != y)
                    pool.push_back(net.andGate(x, y));
                break;
              default:
                if (x != y)
                    pool.push_back(net.orGate(x, y));
                break;
            }
        }
        net.markOutput(pool.back(), "o1");
        net.markOutput(pool[pool.size() / 2], "o2");
        const BalancedNetlist bal = pathBalance(net);
        ASSERT_EQ(checkBalanced(bal.netlist), bal.depth)
            << "trial " << trial;
    }
}

TEST(PathBalance, StateDffsExemptFromBalancing)
{
    Netlist net("t");
    const NodeId in = net.addInput("in");
    const NodeId latch = net.addStateDff("latch");
    const NodeId next = net.orGate(latch, in);
    net.connectFeedback(latch, next);
    net.markOutput(next, "o");
    const BalancedNetlist bal = pathBalance(net);
    EXPECT_EQ(checkBalanced(bal.netlist), bal.depth);
}

} // namespace
} // namespace nisqpp
