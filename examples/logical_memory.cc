/**
 * @file Logical memory experiment: run the paper's lifetime Monte
 * Carlo protocol on one lattice through the parallel engine and report
 * the logical error rate and the decoder's real-time execution
 * statistics — the workload behind Fig. 10 and Table IV.
 *
 * usage: logical_memory [d] [p] [rounds] [threads]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace nisqpp;

    const int d = argc > 1 ? std::atoi(argv[1]) : 7;
    const double p = argc > 2 ? std::atof(argv[2]) : 0.02;
    const int rounds = argc > 3 ? std::atoi(argv[3]) : 20000;
    const int threads = argc > 4 ? std::atoi(argv[4]) : 1;

    std::cout << "logical memory: d=" << d << ", dephasing p=" << p
              << ", " << rounds << " syndrome cycles, " << threads
              << " thread(s)\n"
              << "(engine shards the run into independent memory "
                 "segments of 512 cycles)\n";

    SurfaceLattice lattice(d);
    const DecoderFactory factory =
        meshDecoderFactory(MeshConfig::finalDesign());

    EngineOptions options;
    options.threads = threads;
    Engine engine(options);

    CellSpec cell;
    cell.lattice = &lattice;
    cell.physicalRate = p;
    cell.lifetimeMode = true;
    cell.rule.minTrials = cell.rule.maxTrials =
        static_cast<std::size_t>(rounds);
    cell.rule.targetFailures = 1u << 30;
    cell.seed = 2026;
    cell.factory = &factory;
    const MonteCarloResult res = engine.runCell(cell);

    std::cout << "logical errors: " << res.failures << " / "
              << res.trials
              << " cycles -> PL = " << res.logicalErrorRate << "  (95% CI ["
              << TablePrinter::num(res.ci.lo, 3) << ", "
              << TablePrinter::num(res.ci.hi, 3) << "])\n";

    const double period = kMeshCyclePeriodPs;
    std::cout << "decoder timing: avg "
              << TablePrinter::num(res.cycles.mean() * period * 1e-3, 3)
              << " ns, max "
              << TablePrinter::num(res.cycles.max() * period * 1e-3, 3)
              << " ns over " << res.cycles.count() << " decodes\n"
              << "(syndrome generation is ~400 ns/cycle: the decoder "
                 "runs online, f << 1)\n";
    return 0;
}
