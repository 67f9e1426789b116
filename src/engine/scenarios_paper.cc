/**
 * @file
 * Analytic scenario bodies: the paper reproductions that need no Monte
 * Carlo (SQV model, required-distance model, circuit characteristics
 * and SFQ synthesis). Ported from the original bench binaries so every
 * output is reachable by name through nisqpp_run. The backlog figures
 * (5 and 6) moved to scenarios_stream.cc: they now measure their
 * operating ratios on the streaming pipeline.
 */

#include "engine/scenarios.hh"

#include <string>
#include <vector>

#include "backlog/distance_model.hh"
#include "backlog/sqv.hh"
#include "circuits/benchmarks.hh"
#include "circuits/decompose.hh"
#include "engine/scenario.hh"
#include "sfq/cell_library.hh"
#include "sfq/decoder_circuits.hh"
#include "sfq/synthesis.hh"

namespace nisqpp {
namespace scenarios {

void
fig01Sqv(ScenarioContext &ctx)
{
    ctx.note("=== Figure 1: SQV boost from approximate QEC ===");
    ctx.note("machine: 1024 physical qubits, p = 1e-5, NISQ target "
             "SQV = 1e5\n");

    SqvMachine machine;
    TablePrinter table({"point", "d", "logical qubits", "PL/gate",
                        "gates/qubit", "SQV", "boost vs NISQ"});

    auto add_row = [&](const std::string &name, const SqvPoint &pt) {
        table.addRow({name, std::to_string(pt.distance),
                      std::to_string(pt.logicalQubits),
                      TablePrinter::sci(pt.logicalErrorRate, 2),
                      TablePrinter::sci(pt.gatesPerQubit, 2),
                      TablePrinter::sci(pt.sqv, 2),
                      TablePrinter::num(pt.boost, 5)});
    };

    // The paper's quoted design points (PL values from Section VIII).
    ScalingModel paper_model; // unused when overriding PL
    add_row("paper d=3", sqvPoint(machine, paper_model, 3, 2.94e-9));
    add_row("paper d=5", sqvPoint(machine, paper_model, 5, 8.96e-10));

    // Model-driven evaluation, PL = c1 (p/pth)^(c2 d) with the paper's
    // Table V coefficients.
    add_row("model d=3 (c2=0.650)",
            sqvPoint(machine, ScalingModel{0.03, 0.05, 0.650}, 3));
    add_row("model d=5 (c2=0.429)",
            sqvPoint(machine, ScalingModel{0.03, 0.05, 0.429}, 5));

    ctx.table("fig01_sqv", table);
    ctx.note("\npaper reports: boost 3,402 at d=3 and 11,163 at d=5 "
             "(Fig. 1, Section VIII)");
}

void
fig11Distance(ScenarioContext &ctx)
{
    ctx.note("=== Figure 11: required code distance (100 T gates) ===");
    ctx.note("(syndrome cycle 400 ns; '-' = no distance up to 2001 "
             "suffices)\n");

    const std::vector<DecoderProfile> profiles{
        DecoderProfile::sfqDecoder(), DecoderProfile::mwpm(),
        DecoderProfile::neuralNet(), DecoderProfile::unionFind(),
        DecoderProfile::mwpmNoBacklog()};

    const std::vector<double> rates{1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
                                    3e-3, 1e-2, 3e-2};

    std::vector<std::string> header{"physical error rate"};
    for (const auto &prof : profiles)
        header.push_back(prof.name);
    TablePrinter table(header);

    for (double p : rates) {
        std::vector<std::string> row{TablePrinter::sci(p, 1)};
        for (const auto &prof : profiles) {
            DistanceQuery query;
            query.physicalErrorRate = p;
            const auto d = requiredDistance(prof, query);
            row.push_back(d ? std::to_string(*d) : std::string("-"));
        }
        table.addRow(row);
    }
    ctx.table("fig11_distance", table);

    // The headline ratio at a representative operating point.
    DistanceQuery query;
    query.physicalErrorRate = 1e-3;
    const auto d_sfq =
        requiredDistance(DecoderProfile::sfqDecoder(), query);
    const auto d_mwpm = requiredDistance(DecoderProfile::mwpm(), query);
    if (d_sfq && d_mwpm)
        ctx.note("\nat p = 1e-3: offline MWPM needs " +
                 std::to_string(*d_mwpm) + " vs SFQ " +
                 std::to_string(*d_sfq) + " (" +
                 TablePrinter::num(
                     static_cast<double>(*d_mwpm) / *d_sfq, 3) +
                 "x) - the paper reports ~10x smaller distances for "
                 "the online decoder");
    ctx.note("profile parameters (threshold, c2, decode time) and "
             "their sources are in src/backlog/distance_model.cc");
}

void
table1Circuits(ScenarioContext &ctx)
{
    ctx.note("=== Table I: benchmark characteristics ===\n");

    TablePrinter table({"benchmark", "# qubits", "# total gates (15g)",
                        "# total gates (17g, paper)", "# T gates",
                        "depth"});
    for (const QCircuit &qc : tableOneBenchmarks()) {
        table.addRow(
            {qc.name(), std::to_string(qc.numQubits()),
             std::to_string(decomposedGateCount(qc)),
             std::to_string(
                 decomposedGateCount(qc, kToffoliGatesPaper)),
             std::to_string(decomposedTCount(qc)),
             std::to_string(decomposeToffoli(qc).depth())});
    }
    ctx.table("table1_circuits", table);

    ctx.note("\npaper Table I totals: takahashi 740, barenco 1224, "
             "cnu 1156, cnx 629, cuccaro 821 (17-gate Toffoli)");
}

void
table2Cells(ScenarioContext &ctx)
{
    ctx.note("=== Table II: ERSFQ cell library ===\n");

    TablePrinter table(
        {"cell", "area (um^2)", "JJ count", "delay (ps)", "power (uW)"});
    for (CellKind kind : {CellKind::And2, CellKind::Or2, CellKind::Xor2,
                          CellKind::Not, CellKind::DroDff}) {
        const CellInfo &info = cellInfo(kind);
        table.addRow({info.name, TablePrinter::num(info.areaUm2, 6),
                      std::to_string(info.jjCount),
                      TablePrinter::num(info.delayPs, 3),
                      TablePrinter::num(info.powerUw, 3)});
    }
    ctx.table("table2_cells", table);
    ctx.note("\n(areas/JJ/delays are the paper's Table II values; "
             "per-cell power calibrated to Table III's 0.026 uW per "
             "logic gate)");
}

void
table3Synthesis(ScenarioContext &ctx)
{
    ctx.note("=== Table III: SFQ synthesis results ===\n");

    TablePrinter table({"circuit", "logical depth", "latency cell (ps)",
                        "latency clocked (ps)", "area (um^2)",
                        "power (uW)", "gates", "DFFs", "JJs"});

    auto add = [&](const SynthesisReport &rep) {
        table.addRow({rep.name, std::to_string(rep.logicalDepth),
                      TablePrinter::num(rep.latencyCellPs, 4),
                      TablePrinter::num(rep.latencyClockedPs, 5),
                      TablePrinter::num(rep.areaUm2, 7),
                      TablePrinter::num(rep.powerUw, 4),
                      std::to_string(rep.gateCount),
                      std::to_string(rep.dffCount),
                      std::to_string(rep.jjCount)});
    };

    add(synthesize(singleGateNetlist(CellKind::And2)));
    add(synthesize(singleGateNetlist(CellKind::Or2)));
    add(synthesize(orNNetlist(7)));
    add(synthesize(singleGateNetlist(CellKind::Not)));
    add(synthesize(pairGrantSubcircuit()));
    add(synthesize(pairSubcircuit()));
    add(synthesize(growPairReqSubcircuit()));
    add(synthesize(resetKeeperSubcircuit()));
    add(synthesize(fullDecoderModule()));
    ctx.table("table3_synthesis", table);

    const SynthesisReport full = synthesize(fullDecoderModule());
    const int d9_modules = 17 * 17; // one module per qubit at d=9
    ctx.note("\nfull mesh at d=9 (289 modules): area " +
             TablePrinter::num(full.areaUm2 * d9_modules / 1e6, 4) +
             " mm^2, power " +
             TablePrinter::num(full.powerUw * d9_modules / 1e3, 4) +
             " mW");
    ctx.note("paper Table III: full circuit depth 6, 162.72 ps, "
             "1.2793e6 um^2, 13.08 uW; d=9 mesh 369.72 mm^2 / 3.78 mW");
}

} // namespace scenarios
} // namespace nisqpp
