/**
 * @file
 * Streaming scenario bodies: the backlog/runtime paper claims measured
 * on the live streaming decode pipeline instead of (only) the Section
 * III closed forms. The streaming_backlog family sweeps decoder x
 * distance x cycle time through Engine::runJobs (one deterministic job
 * per cell, so aggregates are byte-identical at any thread count), and
 * fig05_backlog / fig06_runtime derive their operating ratios from
 * streaming measurements, keeping the closed-form model as cross-check.
 */

#include "engine/scenarios.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backlog/backlog_sim.hh"
#include "circuits/benchmarks.hh"
#include "circuits/decompose.hh"
#include "engine/scenario.hh"
#include "sim/experiment.hh"
#include "stream/stream_sim.hh"

namespace nisqpp {
namespace scenarios {

namespace {

/** Fully specified streaming cell: family index + run configuration. */
struct StreamCell
{
    std::size_t family = 0;
    int distance = 3;
    StreamConfig config;
};

/**
 * Build the cells of a families x distances x cycle-times streaming
 * grid at dephasing p = 5%, drawing per-cell seeds from @p masterSeed
 * in fixed grid order (so the grid is reproducible and thread-count
 * invariant). @p families holds decoderFamilies() indices.
 */
std::vector<StreamCell>
makeStreamCells(const std::vector<std::size_t> &families,
                const std::vector<int> &distances,
                const std::vector<double> &cycles, std::size_t rounds,
                std::uint64_t masterSeed)
{
    Rng master(masterSeed);
    std::vector<StreamCell> cells;
    for (std::size_t fi : families)
        for (int d : distances)
            for (double cycleNs : cycles) {
                StreamCell cell;
                cell.family = fi;
                cell.distance = d;
                cell.config.physicalRate = 0.05;
                cell.config.syndromeCycleNs = cycleNs;
                cell.config.rounds = rounds;
                cell.config.latency = StreamLatencyModel::forFamily(
                    decoderFamilies()[fi].name, d);
                Rng child = master.split();
                cell.config.seed = child.next();
                cells.push_back(cell);
            }
    return cells;
}

/** Indices of every registered decoder family. */
std::vector<std::size_t>
allFamilies()
{
    std::vector<std::size_t> indices(decoderFamilies().size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    return indices;
}

/**
 * Run every cell through the engine's job pool; results land in cell
 * order regardless of the thread count (each job is deterministic and
 * owns one slot). Lattices are built once per distance and shared
 * read-only across cells.
 */
std::vector<StreamingResult>
runStreamCells(ScenarioContext &ctx, const std::vector<StreamCell> &cells)
{
    std::vector<std::unique_ptr<SurfaceLattice>> lattices;
    std::vector<int> distances;
    for (const StreamCell &cell : cells)
        if (std::find(distances.begin(), distances.end(),
                      cell.distance) == distances.end()) {
            distances.push_back(cell.distance);
            lattices.push_back(
                std::make_unique<SurfaceLattice>(cell.distance));
        }

    std::vector<StreamingResult> results(cells.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        jobs.push_back([&cells, &results, &lattices, &distances, i] {
            const StreamCell &cell = cells[i];
            StreamConfig config = cell.config;
            for (std::size_t di = 0; di < distances.size(); ++di)
                if (distances[di] == cell.distance)
                    config.lattice = lattices[di].get();
            auto decoder = decoderFamilies()[cell.family].factory(
                *config.lattice, ErrorType::Z);
            results[i] = runStream(config, *decoder);
        });
    }
    ctx.engine().runJobs(std::move(jobs));
    // Fold each cell's deterministic stream.*/decoder.* counters into
    // the scenario sink in fixed cell order: every job is a
    // deterministic function of its cell config, so the fold is
    // thread-count-invariant.
    for (const StreamingResult &r : results)
        ctx.metrics().merge(r.metrics);
    return results;
}

std::string
us(double ns)
{
    return TablePrinter::num(ns / 1e3, 4);
}

} // namespace

void
streamingBacklog(ScenarioContext &ctx)
{
    ctx.note("=== streaming_backlog: live decode pipeline telemetry "
             "===");
    ctx.note("(dephasing p = 5%, lifetime protocol; per-round "
             "syndromes on a simulated wall clock feed each decoder "
             "through a bounded queue; decode latencies are modeled "
             "deterministically - mesh from its own simulated cycle "
             "count, software baselines from the Section III "
             "reference points)\n");

    const std::size_t rounds =
        ctx.scaled({4000, 4000, 1u << 30}).maxTrials;
    const std::vector<StreamCell> cells =
        makeStreamCells(allFamilies(), {3, 5, 7, 9}, {400.0, 1000.0},
                        rounds, ctx.seed(0x57e40ULL));
    const std::vector<StreamingResult> results =
        runStreamCells(ctx, cells);

    TablePrinter env({"key", "value"});
    env.addRow({"rounds per cell", std::to_string(rounds)});
    env.addRow({"queue capacity",
                std::to_string(StreamConfig{}.queueCapacity)});
    env.addRow({"physical error rate", "0.05"});
    ctx.table("streaming_env", env);

    TablePrinter table({"decoder", "d", "cycle (ns)", "PL", "f",
                        "svc mean (ns)", "svc p50", "svc p99",
                        "max depth", "overflow", "final backlog",
                        "growth/round", "model growth", "drain (us)"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const StreamCell &cell = cells[i];
        const StreamingResult &r = results[i];
        table.addRow(
            {decoderFamilies()[cell.family].name,
             std::to_string(cell.distance),
             TablePrinter::num(cell.config.syndromeCycleNs, 4),
             TablePrinter::num(r.logicalErrorRate, 3),
             TablePrinter::num(r.fEmpirical, 4),
             TablePrinter::num(r.serviceNs.mean(), 4),
             TablePrinter::num(r.servicePercentiles.p50, 4),
             TablePrinter::num(r.servicePercentiles.p99, 4),
             std::to_string(r.maxQueueDepth),
             std::to_string(r.overflowRounds),
             std::to_string(r.finalBacklogRounds),
             TablePrinter::num(r.backlogGrowthPerRound, 4),
             TablePrinter::num(backlogGrowthPerRound(r.fEmpirical), 4),
             us(r.drainNs)});
    }
    ctx.table("streaming_backlog", table);

    // Backlog trajectories at the paper's operating point (400 ns
    // cycle [27]), largest lattice: the mesh stays bounded while the
    // software baselines grow without bound (Section III).
    std::vector<std::string> header{"round"};
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].distance == 9 &&
            cells[i].config.syndromeCycleNs == 400.0) {
            picks.push_back(i);
            header.push_back(decoderFamilies()[cells[i].family].name);
        }
    TablePrinter trajectory(header);
    if (!picks.empty()) {
        const std::size_t samples =
            results[picks.front()].trajectory.size();
        for (std::size_t s = 0; s < samples; ++s) {
            std::vector<std::string> row{std::to_string(
                results[picks.front()].trajectory[s].round)};
            for (std::size_t pick : picks)
                row.push_back(std::to_string(
                    results[pick].trajectory[s].backlogRounds));
            trajectory.addRow(row);
        }
    }
    ctx.table("streaming_trajectory_d9_400ns", trajectory);

    ctx.note("\nthe mesh decoder's queue stays bounded (f << 1: it "
             "decodes within the syndrome cycle) while union-find and "
             "MWPM accumulate backlog without bound at the 400 ns "
             "operating point; measured growth/round matches the "
             "closed-form 1 - 1/f within sampling noise (cross-check "
             "column).");
}

void
fig05Backlog(ScenarioContext &ctx)
{
    ctx.note("=== Figure 5: wall clock vs compute time under backlog "
             "===");
    ctx.note("(operating ratio f measured on the streaming pipeline: "
             "union-find at d = 9, p = 5%, 400 ns cycle; closed-form "
             "f^k recurrence kept as cross-check)\n");

    const std::size_t rounds =
        ctx.scaled({2000, 2000, 1u << 30}).maxTrials;
    const std::vector<StreamCell> cells = makeStreamCells(
        {decoderFamilyIndex("union_find"),
         decoderFamilyIndex("sfq_mesh")},
        {9}, {400.0}, rounds, ctx.seed(0xf165ULL));
    const std::vector<StreamingResult> results =
        runStreamCells(ctx, cells);
    const StreamingResult &uf = results[0];
    const StreamingResult &mesh = results[1];

    // Measured backlog trajectory vs the closed-form growth rate.
    TablePrinter stream({"round", "union-find backlog",
                         "model backlog", "sfq mesh backlog"});
    const double ufGrowth = backlogGrowthPerRound(uf.fEmpirical);
    for (std::size_t s = 0; s < uf.trajectory.size(); ++s) {
        const BacklogSample &sample = uf.trajectory[s];
        const std::size_t meshBacklog =
            s < mesh.trajectory.size()
                ? mesh.trajectory[s].backlogRounds
                : 0;
        stream.addRow(
            {std::to_string(sample.round),
             std::to_string(sample.backlogRounds),
             TablePrinter::num(
                 ufGrowth * static_cast<double>(sample.round + 1), 4),
             std::to_string(meshBacklog)});
    }
    ctx.table("fig05_stream_backlog", stream);
    ctx.note("union-find measured f = " +
             TablePrinter::num(uf.fEmpirical, 4) +
             " (growth/round " +
             TablePrinter::num(uf.backlogGrowthPerRound, 4) +
             ", model " + TablePrinter::num(ufGrowth, 4) +
             "); mesh measured f = " +
             TablePrinter::num(mesh.fEmpirical, 4) +
             " (final backlog " +
             std::to_string(mesh.finalBacklogRounds) + ")\n");

    // The Fig. 5 staircase at the measured ratio: T gates synchronize
    // on the drained backlog, so the stall grows as f^k.
    QCircuit qc(2, "staircase");
    for (int i = 0; i < 10; ++i) {
        qc.h(0); // Clifford padding between synchronization points
        qc.cnot(0, 1);
        qc.t(0);
    }

    BacklogParams params;
    params.syndromeCycleNs = 400.0;
    params.decodeCycleNs = uf.fEmpirical * 400.0;
    const BacklogResult res = simulateBacklog(qc, params);

    TablePrinter table({"T gate", "compute time (us)", "wall clock (us)",
                        "stall (us)", "backlog (rounds)",
                        "stall ratio"});
    double prev_stall = 0;
    for (const auto &ev : res.tGates) {
        table.addRow(
            {std::to_string(ev.index),
             TablePrinter::num(ev.computeNs / 1e3, 4),
             TablePrinter::num(ev.wallNs / 1e3, 4),
             TablePrinter::num(ev.stallNs / 1e3, 4),
             TablePrinter::num(ev.backlogRounds, 4),
             prev_stall > 0
                 ? TablePrinter::num(ev.stallNs / prev_stall, 3)
                 : std::string("-")});
        prev_stall = ev.stallNs;
    }
    ctx.table("fig05_backlog", table);

    ctx.note("\ntotal: compute " +
             TablePrinter::num(res.computeNs / 1e3, 4) + " us, wall " +
             TablePrinter::num(res.wallNs / 1e3, 4) + " us, overhead " +
             TablePrinter::num(res.overhead(), 4) +
             "x; stall ratio converges to the measured f = " +
             TablePrinter::num(uf.fEmpirical, 4) +
             " (the f^k recurrence of Section III)");
}

void
fig06Runtime(ScenarioContext &ctx)
{
    ctx.note("=== Figure 6: running time vs decoding ratio ===");
    ctx.note("(syndrome cycle 400 ns; wall-clock seconds, log-scale "
             "in the paper; decoder ratios measured on the streaming "
             "pipeline at d = 9, p = 5%)\n");

    // Measure each decoder family's operating ratio on the pipeline.
    const std::size_t rounds =
        ctx.scaled({1000, 1000, 1u << 30}).maxTrials;
    const std::vector<StreamCell> cells = makeStreamCells(
        allFamilies(), {9}, {400.0}, rounds, ctx.seed(0xf166ULL));
    const std::vector<StreamingResult> results =
        runStreamCells(ctx, cells);

    TablePrinter measured({"decoder", "svc mean (ns)", "measured f",
                           "max backlog (rounds)"});
    std::vector<double> measuredRatios;
    for (std::size_t fi = 0; fi < cells.size(); ++fi) {
        const StreamingResult &r = results[fi];
        measured.addRow({decoderFamilies()[cells[fi].family].name,
                         TablePrinter::num(r.serviceNs.mean(), 4),
                         TablePrinter::num(r.fEmpirical, 4),
                         std::to_string(r.maxBacklogRounds)});
        measuredRatios.push_back(r.fEmpirical);
    }
    ctx.table("fig06_measured_f", measured);
    ctx.note("");

    // Running time of every benchmark at the *measured* ratios.
    std::vector<std::string> header{"benchmark (T count)"};
    for (std::size_t fi = 0; fi < cells.size(); ++fi)
        header.push_back(decoderFamilies()[cells[fi].family].name);
    TablePrinter measuredRuntime(header);
    for (const QCircuit &qc : tableOneBenchmarks()) {
        std::vector<std::string> row{
            qc.name() + " (" +
            std::to_string(decomposedTCount(qc)) + ")"};
        for (const auto &[f, wall_ns] :
             runningTimeVsRatio(qc, 400.0, measuredRatios))
            row.push_back(TablePrinter::sci(wall_ns * 1e-9, 2));
        measuredRuntime.addRow(row);
    }
    ctx.table("fig06_runtime_measured", measuredRuntime);

    // Closed-form ratio sweep kept as the cross-check grid.
    const std::vector<double> ratios{0.25, 0.5, 0.75, 1.0, 1.25,
                                     1.5,  1.75, 2.0, 2.5, 3.0};
    std::vector<std::string> gridHeader{"benchmark (T count)"};
    for (double f : ratios)
        gridHeader.push_back("f=" + TablePrinter::num(f, 3));
    TablePrinter table(gridHeader);
    for (const QCircuit &qc : tableOneBenchmarks()) {
        std::vector<std::string> row{
            qc.name() + " (" +
            std::to_string(decomposedTCount(qc)) + ")"};
        for (const auto &[f, wall_ns] :
             runningTimeVsRatio(qc, 400.0, ratios))
            row.push_back(TablePrinter::sci(wall_ns * 1e-9, 2));
        table.addRow(row);
    }
    ctx.table("fig06_runtime", table);

    ctx.note("\nreference points (Section III): NN decoder ~800 ns -> "
             "f ~ 2; SFQ decoder <= 20 ns -> f << 1.");
    ctx.note("paper's example: 686 T gates at f = 2 -> ~1e196 s; "
             "saturation caps our doubles at 1e250 ns.");
}

} // namespace scenarios
} // namespace nisqpp
