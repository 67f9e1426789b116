#include "sfq/decoder_circuits.hh"

#include <array>
#include <string>

#include "common/logging.hh"

namespace nisqpp {

const char *const kDirName[4] = {"n", "e", "s", "w"};

namespace {

constexpr int dN = 0;
constexpr int dE = 1;
constexpr int dS = 2;
constexpr int dW = 3;
constexpr int kRev[4] = {dS, dW, dN, dE};

using Ports = std::array<NodeId, 4>;

Ports
addDirInputs(Netlist &net, const std::string &prefix)
{
    Ports ports;
    for (int d = 0; d < 4; ++d)
        ports[d] = net.addInput(prefix + "_" + kDirName[d]);
    return ports;
}

/**
 * Meet detection with the effectiveness priority {E,W} > {N,S} >
 * {S,E} > {S,W}; emissions along reversed travel directions are ORed
 * into @p emit. Logically identical to emitFromMeets() in
 * core/module_logic.hh, restructured into flat AND/OR trees so the
 * synthesized depth stays near the paper's: under the allow gate,
 * excluding the higher-priority *gated* meets is equivalent to
 * excluding the raw pair conditions.
 */
void
buildMeets(Netlist &net, const Ports &in, NodeId allow, Ports &emit)
{
    const NodeId p_ew = net.andGate(in[dE], in[dW]);
    const NodeId p_ns = net.andGate(in[dN], in[dS]);
    const NodeId p_se = net.andGate(in[dS], in[dE]);
    const NodeId p_sw = net.andGate(in[dS], in[dW]);
    const NodeId no_ew = net.notGate(p_ew);
    const NodeId no_ns = net.notGate(p_ns);
    const NodeId no_se = net.notGate(p_se);

    const NodeId m_ew = net.andGate(p_ew, allow);
    const NodeId m_ns = net.andTree({p_ns, no_ew, allow});
    const NodeId m_se = net.andTree({p_se, no_ew, no_ns, allow});
    const NodeId m_sw =
        net.andTree({p_sw, no_ew, no_ns, no_se, allow});

    emit[dW] = net.orGate(m_ew, m_se);
    emit[dE] = net.orGate(m_ew, m_sw);
    emit[dN] = net.orTree({m_ns, m_se, m_sw});
    emit[dS] = m_ns;
}

/**
 * The reset keeper: five cascaded buffers (DROs) fed by global |
 * trigger keep the reset asserted for the circuit depth. Returns the
 * seven taps (global, trigger, b1..b5) whose OR is the block signal,
 * matching Table III's 7-input OR. The buffers are state cells
 * (level-0 sequential state): their stagger is the function, so they
 * are exempt from path balancing, matching how the paper's depth-6
 * full circuit accounts for them.
 */
std::vector<NodeId>
addResetKeeperTaps(Netlist &net, NodeId global, NodeId trigger)
{
    std::vector<NodeId> taps{global, trigger};
    NodeId prev = net.addStateDff("b1");
    net.connectFeedback(prev, net.orGate(global, trigger));
    taps.push_back(prev);
    for (char i = '2'; i <= '5'; ++i) {
        const NodeId next = net.addStateDff(std::string{'b', i});
        net.connectFeedback(next, prev);
        prev = next;
        taps.push_back(prev);
    }
    return taps;
}

} // namespace

Netlist
growPairReqSubcircuit()
{
    Netlist net("pair_req_grow");
    const NodeId hot = net.addInput("hot");
    const NodeId reset = net.addInput("reset");
    const Ports g = addDirInputs(net, "g");
    const Ports rq = addDirInputs(net, "rq");

    const NodeId not_reset = net.notGate(reset);
    const NodeId not_hot = net.notGate(hot);
    const NodeId allow = net.andGate(not_hot, not_reset);

    for (int d = 0; d < 4; ++d) {
        const NodeId out = net.andGate(not_reset,
                                       net.orGate(g[d], hot));
        net.markOutput(out, std::string("grow_") + kDirName[d]);
    }

    Ports emit{-1, -1, -1, -1};
    buildMeets(net, g, allow, emit);
    for (int d = 0; d < 4; ++d) {
        const NodeId pass = net.andGate(rq[d], allow);
        net.markOutput(net.orGate(pass, emit[d]),
                       std::string("rq_") + kDirName[d]);
    }
    return net;
}

Netlist
pairGrantSubcircuit()
{
    Netlist net("pair_grant");
    const NodeId hot = net.addInput("hot");
    const NodeId reset = net.addInput("reset");
    const NodeId formed = net.addInput("formed");
    const Ports rq = addDirInputs(net, "rq");
    const Ports gr = addDirInputs(net, "gr");

    const NodeId not_reset = net.notGate(reset);
    const NodeId pass_ok = net.andGate(
        net.andGate(net.notGate(hot), net.notGate(formed)), not_reset);

    Ports latch;
    for (int d = 0; d < 4; ++d)
        latch[d] =
            net.addStateDff(std::string("latch_") + kDirName[d]);

    const NodeId any_latch = net.orTree(
        {latch[dN], latch[dE], latch[dS], latch[dW]});
    NodeId free = net.andGate(hot, net.notGate(any_latch));

    // Fixed request priority W, E, S, N (travel direction of the
    // incoming request); the grant travels the reversed direction.
    // Flat priority: request i is chosen iff free and no
    // higher-priority request is present.
    const int rq_priority[4] = {dW, dE, dS, dN};
    Ports chosen;
    for (int i = 0; i < 4; ++i) {
        const int rq_dir = rq_priority[i];
        std::vector<NodeId> terms{free, rq[rq_dir]};
        for (int j = 0; j < i; ++j)
            terms.push_back(net.notGate(rq[rq_priority[j]]));
        chosen[kRev[rq_dir]] = net.andTree(terms);
    }
    for (int d = 0; d < 4; ++d) {
        const NodeId next = net.andGate(
            net.orGate(latch[d], chosen[d]), not_reset);
        net.connectFeedback(latch[d], next);
        // Hot or already-formed modules do not pass foreign trains.
        const NodeId out = net.orGate(net.andGate(latch[d], hot),
                                      net.andGate(gr[d], pass_ok));
        net.markOutput(out, std::string("gr_") + kDirName[d]);
    }
    return net;
}

Netlist
pairSubcircuit()
{
    Netlist net("pair");
    const NodeId hot = net.addInput("hot");
    const NodeId reset = net.addInput("reset");
    const NodeId boundary = net.addInput("boundary");
    const Ports gr = addDirInputs(net, "gr");
    const Ports pr = addDirInputs(net, "pr");

    const NodeId not_hot = net.notGate(hot);
    const NodeId not_reset = net.notGate(reset);

    // Sticky pair-formation latch: one emission per module per round.
    const NodeId formed = net.addStateDff("formed_state");
    const NodeId allow = net.andTree(
        {not_hot, net.notGate(boundary), not_reset,
         net.notGate(formed)});

    Ports emit{-1, -1, -1, -1};
    buildMeets(net, gr, allow, emit);

    Ports raw;
    for (int d = 0; d < 4; ++d)
        raw[d] = net.orGate(
            emit[d], net.andTree({boundary, gr[kRev[d]],
                                  net.notGate(formed)}));
    const NodeId met_now =
        net.orTree({raw[dN], raw[dE], raw[dS], raw[dW]});
    net.connectFeedback(
        formed, net.andGate(net.orGate(formed, met_now), not_reset));
    net.markOutput(met_now, "formed_now");

    // Pairing completion + endpoint absorption: a fired endpoint keeps
    // absorbing pair pulses while the reset window holds (the `fired`
    // latch clears when the reset block deasserts).
    const NodeId pr_any =
        net.orTree({pr[dN], pr[dE], pr[dS], pr[dW]});
    const NodeId fire = net.andGate(pr_any, hot);
    net.markOutput(fire, "fire");
    const NodeId fired = net.addStateDff("fired_state");
    net.connectFeedback(fired,
                        net.andGate(net.orGate(fired, fire), reset));
    const NodeId pass_ok =
        net.notGate(net.orGate(hot, fired));

    Ports pr_out;
    for (int d = 0; d < 4; ++d) {
        pr_out[d] = net.orGate(net.andGate(pr[d], pass_ok), raw[d]);
        net.markOutput(pr_out[d], std::string("pr_") + kDirName[d]);
    }

    // Error (chain membership) state: touches TOGGLE membership so
    // chains of successive rounds compose by XOR (destructive-read
    // accumulation in the control layer).
    const NodeId err = net.addStateDff("err_state");
    const NodeId touch = net.orTree(
        {pr_out[dN], pr_out[dE], pr_out[dS], pr_out[dW], fire});
    net.connectFeedback(err, net.xorGate(err, touch));
    net.markOutput(err, "error");
    return net;
}

Netlist
resetKeeperSubcircuit()
{
    Netlist net("reset_keeper");
    const NodeId global = net.addInput("global_reset");
    const NodeId trigger = net.addInput("trigger");
    net.markOutput(net.orTree(addResetKeeperTaps(net, global, trigger)),
                   "block");
    return net;
}

Netlist
fullDecoderModule()
{
    Netlist net("decoder_module");
    const NodeId hot = net.addInput("hot");
    const NodeId global = net.addInput("global_reset");
    const NodeId trigger_in = net.addInput("trigger");
    const NodeId boundary = net.addInput("boundary");
    const Ports g = addDirInputs(net, "g");
    const Ports rq = addDirInputs(net, "rq");
    const Ports gr = addDirInputs(net, "gr");
    const Ports pr = addDirInputs(net, "pr");

    const NodeId reset =
        net.orTree(addResetKeeperTaps(net, global, trigger_in));
    const NodeId not_reset = net.notGate(reset);
    const NodeId not_hot = net.notGate(hot);

    // Grow + Pair_Req.
    const NodeId allow_rq = net.andGate(not_hot, not_reset);
    for (int d = 0; d < 4; ++d)
        net.markOutput(net.andGate(not_reset, net.orGate(g[d], hot)),
                       std::string("grow_") + kDirName[d]);
    Ports rq_emit{-1, -1, -1, -1};
    buildMeets(net, g, allow_rq, rq_emit);
    for (int d = 0; d < 4; ++d)
        net.markOutput(net.orGate(net.andGate(rq[d], allow_rq),
                                  rq_emit[d]),
                       std::string("rq_") + kDirName[d]);

    // Pair_Grant.
    Ports latch;
    for (int d = 0; d < 4; ++d)
        latch[d] =
            net.addStateDff(std::string("latch_") + kDirName[d]);
    const NodeId any_latch = net.orTree(
        {latch[dN], latch[dE], latch[dS], latch[dW]});
    NodeId free = net.andGate(hot, net.notGate(any_latch));
    // Flat priority: request i is chosen iff free and no
    // higher-priority request is present.
    const int rq_priority[4] = {dW, dE, dS, dN};
    Ports chosen;
    for (int i = 0; i < 4; ++i) {
        const int rq_dir = rq_priority[i];
        std::vector<NodeId> terms{free, rq[rq_dir]};
        for (int j = 0; j < i; ++j)
            terms.push_back(net.notGate(rq[rq_priority[j]]));
        chosen[kRev[rq_dir]] = net.andTree(terms);
    }

    // Pair (built before the grant outputs so the formed latch can
    // gate grant passing, as in the behavioral model).
    const NodeId formed = net.addStateDff("formed_state");
    const NodeId allow_pr = net.andTree(
        {not_hot, net.notGate(boundary), not_reset,
         net.notGate(formed)});
    Ports pr_emit{-1, -1, -1, -1};
    buildMeets(net, gr, allow_pr, pr_emit);
    Ports raw;
    for (int d = 0; d < 4; ++d)
        raw[d] = net.orGate(
            pr_emit[d], net.andTree({boundary, gr[kRev[d]],
                                     net.notGate(formed)}));
    const NodeId met_now =
        net.orTree({raw[dN], raw[dE], raw[dS], raw[dW]});
    net.connectFeedback(
        formed, net.andGate(net.orGate(formed, met_now), not_reset));

    const NodeId gr_pass_ok = net.andTree(
        {not_hot, net.notGate(formed), not_reset,
         net.notGate(met_now)});
    for (int d = 0; d < 4; ++d) {
        net.connectFeedback(latch[d],
                            net.andGate(net.orGate(latch[d], chosen[d]),
                                        not_reset));
        net.markOutput(net.orGate(net.andGate(latch[d], hot),
                                  net.andGate(gr[d], gr_pass_ok)),
                       std::string("gr_") + kDirName[d]);
    }

    const NodeId pr_any =
        net.orTree({pr[dN], pr[dE], pr[dS], pr[dW]});
    const NodeId fire = net.andGate(pr_any, hot);
    net.markOutput(fire, "fire");
    const NodeId fired = net.addStateDff("fired_state");
    net.connectFeedback(fired,
                        net.andGate(net.orGate(fired, fire), reset));
    const NodeId pr_pass_ok =
        net.notGate(net.orGate(hot, fired));
    Ports pr_out;
    for (int d = 0; d < 4; ++d) {
        pr_out[d] =
            net.orGate(net.andGate(pr[d], pr_pass_ok), raw[d]);
        net.markOutput(pr_out[d], std::string("pr_") + kDirName[d]);
    }
    const NodeId err = net.addStateDff("err_state");
    net.connectFeedback(
        err, net.xorGate(err, net.orTree({pr_out[dN], pr_out[dE],
                                          pr_out[dS], pr_out[dW],
                                          fire})));
    net.markOutput(err, "error");
    return net;
}

Netlist
singleGateNetlist(CellKind kind)
{
    Netlist net(cellInfo(kind).name);
    const int arity = cellArity(kind);
    require(arity >= 1, "singleGateNetlist: need a logic cell");
    std::vector<NodeId> fanin;
    for (int i = 0; i < arity; ++i)
        fanin.push_back(net.addInput("in" + std::to_string(i)));
    net.markOutput(net.addGate(kind, fanin), "out");
    return net;
}

Netlist
orNNetlist(int n)
{
    require(n >= 2, "orNNetlist: need n >= 2");
    Netlist net("OR GATE " + std::to_string(n) + " INPUTS");
    std::vector<NodeId> inputs;
    for (int i = 0; i < n; ++i)
        inputs.push_back(net.addInput("in" + std::to_string(i)));
    net.markOutput(net.orTree(inputs), "out");
    return net;
}

} // namespace nisqpp
