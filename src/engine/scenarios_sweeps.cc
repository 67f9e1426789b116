/**
 * @file
 * Monte Carlo scenario bodies: the sweep-driven figure/table
 * reproductions, all dispatched through the sharded parallel engine so
 * --threads N scales them across cores while keeping aggregates
 * byte-identical to a single-threaded run of the same seed.
 */

#include "engine/scenarios.hh"

#include <chrono>
#include <string>
#include <vector>

#include "engine/scenario.hh"
#include "sim/experiment.hh"

namespace nisqpp {
namespace scenarios {

namespace {

/** PL grid of one sweep as a "p x distance" table. */
TablePrinter
sweepTable(const SweepResult &result, const std::vector<double> &ps)
{
    std::vector<std::string> header{"p (%)"};
    for (const auto &curve : result.curves)
        header.push_back("PL d=" + std::to_string(curve.distance));
    TablePrinter table(header);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        std::vector<std::string> row{TablePrinter::num(100 * ps[i], 3)};
        for (const auto &curve : result.curves)
            row.push_back(TablePrinter::num(100 * curve.pl[i], 3));
        table.addRow(row);
    }
    return table;
}

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

void
fig10Final(ScenarioContext &ctx)
{
    ctx.note("=== Figure 10 (a): final design error rate scaling ===");
    ctx.note("(dephasing channel, lifetime protocol)\n");

    SweepConfig config;
    config.distances = {3, 5, 7, 9};
    config.physicalRates = SweepConfig::logSpaced(0.01, 0.12, 10);
    config.lifetimeMode = true;
    config.stopRule = ctx.scaled({4000, 4000, 1u << 30});
    config.seed = ctx.seed(config.seed);

    const auto factory = meshDecoderFactory(MeshConfig::finalDesign());
    const SweepResult result = ctx.engine().runSweep(config, factory);
    ctx.table("fig10a_scaling",
              sweepTable(result, config.physicalRates));

    // Threshold metrics (Section VII).
    ctx.note("\npseudo-thresholds (PL = p):");
    TablePrinter thresholds({"d", "pseudo-threshold (%)"});
    for (const auto &curve : result.curves)
    {
        const auto pseudo = pseudoThreshold(curve);
        thresholds.addRow(
            {std::to_string(curve.distance),
             pseudo ? TablePrinter::num(100 * *pseudo, 3)
                    : std::string("not crossed in range")});
    }
    ctx.table("fig10a_pseudothresholds", thresholds);
    if (const auto pth = accuracyThreshold(result.curves))
        ctx.note("accuracy threshold (curve crossings): " +
                 TablePrinter::num(100 * *pth, 3) + "%");
    ctx.note("paper: accuracy threshold ~5%, pseudo-thresholds "
             "~3.5%-5%, anomalous d=3 (boundary-dominated)");

    ctx.note("\n=== Figure 10 (b): zoom near threshold ===\n");
    SweepConfig zoom = config;
    zoom.physicalRates = SweepConfig::logSpaced(0.045, 0.062, 6);
    ctx.table("fig10b_zoom",
              sweepTable(ctx.engine().runSweep(zoom, factory),
                         zoom.physicalRates));
}

void
fig10Variants(ScenarioContext &ctx)
{
    ctx.note("=== Figure 10 (top row): incremental design steps ===");
    ctx.note("(logical error rate, dephasing channel, lifetime "
             "protocol)");

    SweepConfig config;
    config.distances = {3, 5, 7, 9};
    config.physicalRates = SweepConfig::logSpaced(0.01, 0.12, 8);
    config.lifetimeMode = true;
    config.stopRule = ctx.scaled({2000, 2000, 1u << 30});
    config.seed = ctx.seed(config.seed);

    for (const MeshConfig &variant :
         {MeshConfig::baseline(), MeshConfig::withReset(),
          MeshConfig::withResetAndBoundary()}) {
        ctx.note("\n--- design: " + variant.label() + " ---");
        const SweepResult result =
            ctx.engine().runSweep(config, meshDecoderFactory(variant));
        ctx.table("fig10_top_" + variant.label(),
                  sweepTable(result, config.physicalRates));
    }

    ctx.note("\npaper: baseline shows no threshold behavior; resets "
             "and boundaries progressively restore error suppression "
             "(our unarbitrated boundary variant trades differently - "
             "see EXPERIMENTS.md).");
}

void
fig10Cycles(ScenarioContext &ctx)
{
    ctx.note("=== Figure 10 (c): cycles-to-solution densities ===");
    ctx.note("(dephasing p = 5%, final design; probability mass per "
             "cycle count)\n");

    SweepConfig config;
    config.distances = {3, 5, 7, 9};
    config.physicalRates = {0.05};
    config.stopRule = ctx.scaled({4000, 4000, 1u << 30});
    config.seed = ctx.seed(0xf16cULL);

    const SweepResult result = ctx.engine().runSweep(
        config, meshDecoderFactory(MeshConfig::finalDesign()));

    std::vector<std::string> header{"cycles"};
    for (int d : config.distances)
        header.push_back("d=" + std::to_string(d));
    TablePrinter table(header);
    for (int cyc = 0; cyc <= 20; ++cyc) {
        std::vector<std::string> row{std::to_string(cyc)};
        for (const auto &dist_row : result.cells)
            row.push_back(TablePrinter::num(
                dist_row[0].cycleHistogram.density(cyc), 3));
        table.addRow(row);
    }
    ctx.table("fig10c_densities", table);

    ctx.note("\ntail beyond the 20-cycle window:");
    TablePrinter tail({"d", "tail mass", "max cycles"});
    for (std::size_t i = 0; i < config.distances.size(); ++i) {
        const Histogram &hist = result.cells[i][0].cycleHistogram;
        double mass = 0;
        for (std::size_t b = 21; b < hist.numBins(); ++b)
            mass += hist.density(b);
        tail.addRow({std::to_string(config.distances[i]),
                     TablePrinter::num(mass, 3),
                     std::to_string(hist.lastNonzero())});
    }
    ctx.table("fig10c_tail", tail);
    ctx.note("paper: densities peak near 0, 5, 9, 14 cycles for "
             "d = 3, 5, 7, 9");
}

void
table4Latency(ScenarioContext &ctx)
{
    ctx.note("=== Table IV: decoder execution time (ns) ===");
    ctx.note("(dephasing, p swept 1%-12%, final design)\n");

    SweepConfig config;
    config.distances = {3, 5, 7, 9};
    config.physicalRates = {0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12};
    config.stopRule = ctx.scaled({1500, 1500, 1u << 30});
    config.seed = ctx.seed(0xab1eULL);

    const SweepResult result = ctx.engine().runSweep(
        config, meshDecoderFactory(MeshConfig::finalDesign()));

    const double period_ps = MeshConfig{}.cyclePeriodPs;
    TablePrinter table({"code distance", "max (ns)", "average (ns)",
                        "std dev (ns)", "max (cycles)"});
    std::vector<double> ds, max_cycles;
    for (std::size_t di = 0; di < config.distances.size(); ++di) {
        RunningStats stats;
        for (const MonteCarloResult &cell : result.cells[di])
            stats.merge(cell.cycles);
        const double to_ns = period_ps * 1e-3;
        table.addRow({std::to_string(config.distances[di]),
                      TablePrinter::num(stats.max() * to_ns, 3),
                      TablePrinter::num(stats.mean() * to_ns, 3),
                      TablePrinter::num(stats.stddev() * to_ns, 3),
                      TablePrinter::num(stats.max(), 4)});
        ds.push_back(config.distances[di]);
        max_cycles.push_back(stats.max());
    }
    ctx.table("table4_latency", table);

    const LinearFit fit = fitLinear(ds, max_cycles);
    ctx.note("\nmax-cycles linear fit: " +
             TablePrinter::num(fit.slope, 4) + " * d + " +
             TablePrinter::num(fit.intercept, 4) +
             " (paper: leading coefficient ~15.75)");
    ctx.note("paper Table IV (ns): d=3 3.74/0.28/0.58, d=5 "
             "9.28/0.72/1.09, d=7 14.2/2.00/1.99, d=9 "
             "19.2/3.81/3.11; max <= ~20 ns (online, f < 1)");
}

void
table5Fit(ScenarioContext &ctx)
{
    ctx.note("=== Table V: empirical scaling-model fit ===");
    ctx.note("(PL ~= c1 (p/pth)^(c2 d), pth = 5%, dephasing, lifetime "
             "protocol)\n");

    SweepConfig config;
    config.distances = {3, 5, 7, 9};
    config.physicalRates = {0.01, 0.015, 0.02, 0.03, 0.04};
    config.lifetimeMode = true;
    config.stopRule = ctx.scaled({6000, 6000, 1u << 30});
    config.seed = ctx.seed(config.seed);

    const SweepResult result = ctx.engine().runSweep(
        config, meshDecoderFactory(MeshConfig::finalDesign()));
    const auto fits = fitSweep(result, 0.05, 0.045);

    TablePrinter table({"code distance", "c2", "c1", "fit R^2"});
    for (std::size_t i = 0; i < fits.size(); ++i)
        table.addRow({std::to_string(result.curves[i].distance),
                      TablePrinter::num(fits[i].c2, 3),
                      TablePrinter::num(fits[i].c1, 3),
                      TablePrinter::num(fits[i].r2, 3)});
    ctx.table("table5_fit", table);

    ctx.note("\npaper Table V: c2 = 0.650, 0.429, 0.306, 0.323 for "
             "d = 3, 5, 7, 9 (c2 < 1 is the accuracy price of the "
             "approximate decoder)");
}

void
microHotpath(ScenarioContext &ctx)
{
    ctx.note("=== micro_hotpath: per-trial hot-path throughput ===");
    ctx.note("(dephasing p = 5%, per-round protocol, fixed trial "
             "budget, one cell per decoder x distance; identical "
             "error streams per distance via shared cell seeds; "
             "sfq_mesh_batch = the same mesh decoder through the "
             "lane-packed decodeBatch path, PL identical by "
             "construction; union_find_batch = union-find at the same "
             "batch setting, which it decodes one trial at a time)\n");

    const std::vector<DecoderFamily> &families = decoderFamilies();
    const std::vector<int> distances{3, 5, 7, 9};

    /**
     * Round-group size of the forced-batch rows: one full shard
     * (EngineOptions::shardTrials).
     */
    constexpr std::size_t kBatchRows = 512;

    // Fixed budgets, no early stop: wall time divides cleanly into
    // per-decode cost. Every family at one distance reuses the same
    // cell seed, so all decoders face identical syndrome streams.
    const StopRule rule = ctx.scaled({4000, 4000, ~std::size_t{0}});
    StopRule warmupRule;
    warmupRule.minTrials = warmupRule.maxTrials =
        std::min<std::size_t>(256, rule.maxTrials);
    warmupRule.targetFailures = ~std::size_t{0};

    std::vector<std::unique_ptr<SurfaceLattice>> lattices;
    std::vector<std::uint64_t> cellSeeds;
    Rng master(ctx.seed(0x407b47ULL));
    for (int d : distances) {
        lattices.push_back(std::make_unique<SurfaceLattice>(d));
        Rng child = master.split();
        cellSeeds.push_back(child.next());
    }

    TablePrinter env({"key", "value"});
    env.addRow({"threads", std::to_string(ctx.engine().threads())});
    env.addRow({"shard_trials",
                std::to_string(ctx.engine().options().shardTrials)});
    env.addRow({"trials_per_cell", std::to_string(rule.maxTrials)});
    env.addRow({"batch_lanes",
                std::to_string(ctx.engine().options().batchLanes)});
    env.addRow({"batch_rows_lanes", std::to_string(kBatchRows)});
#ifdef NDEBUG
    env.addRow({"assertions", "off"});
#else
    env.addRow({"assertions", "on"});
#endif
    ctx.table("hotpath_env", env);

    TablePrinter table({"decoder", "d", "trials", "PL", "host ms",
                        "trials/s", "ns/decode"});
    const auto addRows = [&](const std::string &name,
                             const DecoderFactory &factory,
                             std::size_t batch_lanes) {
        for (std::size_t di = 0; di < distances.size(); ++di) {
            CellSpec spec;
            spec.lattice = lattices[di].get();
            spec.physicalRate = 0.05;
            spec.seed = cellSeeds[di];
            spec.factory = &factory;
            spec.batchLanes = batch_lanes;

            spec.rule = warmupRule;
            ctx.engine().runCell(spec); // fault in caches/buffers

            // Best-of-N wall time: the minimum is the least-disturbed
            // run, which is what a tracked benchmark should record on
            // shared/noisy hosts. Results are seed-deterministic, so
            // every repetition produces the same aggregates.
            constexpr int kReps = 3;
            spec.rule = rule;
            MonteCarloResult cell;
            double ms = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                const auto start = std::chrono::steady_clock::now();
                cell = ctx.engine().runCell(spec);
                const double rep_ms = elapsedMs(start);
                if (rep == 0 || rep_ms < ms)
                    ms = rep_ms;
            }

            // Dephasing runs exactly one decode per trial.
            const double per_decode_ns =
                cell.trials ? ms * 1e6 / cell.trials : 0.0;
            table.addRow(
                {name, std::to_string(distances[di]),
                 std::to_string(cell.trials),
                 TablePrinter::num(cell.logicalErrorRate, 4),
                 TablePrinter::num(ms, 4),
                 TablePrinter::num(cell.trials / (ms / 1e3), 4),
                 TablePrinter::num(per_decode_ns, 4)});
        }
    };
    for (const DecoderFamily &family : families)
        addRows(family.name, family.factory, 0 /* engine default */);
    // The mesh decoder again, forced through the lane-packed batch
    // path: same cells, same seeds, so any PL deviation from the
    // sfq_mesh rows is a lane-equivalence bug (bench_compare checks).
    addRows("sfq_mesh_batch",
            families[decoderFamilyIndex("sfq_mesh")].factory,
            kBatchRows);
    // Union-find at the same batch setting: it has no lane engine, so
    // it runs groups of one and these rows only guard PL identity with
    // the union_find rows (same cells, same seeds; bench_compare
    // checks).
    addRows("union_find_batch",
            families[decoderFamilyIndex("union_find")].factory,
            kBatchRows);
    ctx.table("hotpath", table);

    ctx.note("\nrefresh the tracked snapshot with: ./build/"
             "micro_hotpath --threads 1 --format json > "
             "BENCH_hotpath.json; compare against bench/"
             "BENCH_hotpath_baseline.json with ./build/bench_compare "
             "(PL columns must match byte for byte)");
}

void
microDecoders(ScenarioContext &ctx)
{
    ctx.note("=== micro_decoders: sharded engine throughput ===");
    ctx.note("(dephasing p = 5%, per-round protocol; identical error "
             "streams per decoder family via the shared master seed)\n");

    const std::vector<DecoderFamily> &families = decoderFamilies();

    SweepConfig config;
    config.distances = {3, 5, 7, 9};
    config.physicalRates = {0.05};
    config.stopRule = ctx.scaled({1000, 1000, 1u << 30});
    config.seed = ctx.seed(0xbe4cULL);

    TablePrinter table({"decoder", "d", "trials", "PL", "host ms",
                        "trials/s"});
    const auto total_start = std::chrono::steady_clock::now();
    for (const DecoderFamily &family : families) {
        const auto start = std::chrono::steady_clock::now();
        const SweepResult result =
            ctx.engine().runSweep(config, family.factory);
        const double ms = elapsedMs(start);
        std::size_t trials = 0;
        for (const auto &row : result.cells)
            for (const auto &cell : row)
                trials += cell.trials;
        for (std::size_t di = 0; di < config.distances.size(); ++di) {
            const MonteCarloResult &cell = result.cells[di][0];
            table.addRow(
                {family.name,
                 std::to_string(config.distances[di]),
                 std::to_string(cell.trials),
                 TablePrinter::num(cell.logicalErrorRate, 3),
                 "", ""});
        }
        table.addRow({family.name, "all",
                      std::to_string(trials), "-",
                      TablePrinter::num(ms, 4),
                      TablePrinter::num(trials / (ms / 1e3), 4)});
    }
    ctx.table("micro_decoders", table);

    ctx.note("\ntotal wall-clock: " +
             TablePrinter::num(elapsedMs(total_start), 4) + " ms at " +
             std::to_string(ctx.engine().threads()) +
             " thread(s), shard size " +
             std::to_string(ctx.engine().options().shardTrials) +
             "; rerun with --threads N to scale across cores "
             "(aggregates stay byte-identical for a fixed --seed)");
}

} // namespace scenarios
} // namespace nisqpp
