/**
 * @file Decoder shoot-out: accuracy of the SFQ mesh decoder against the
 * exact MWPM, union-find and software-greedy baselines on identical
 * error streams, with the mesh's simulated hardware latency alongside.
 * Each family runs through the parallel engine from the same master
 * seed, so every decoder sees exactly the same shard error streams.
 *
 * usage: decoder_comparison [threads]
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace nisqpp;

    const int d = 5;
    const double p = 0.03;
    const std::size_t rounds = 5000;
    const int threads = argc > 1 ? std::atoi(argv[1]) : 1;
    SurfaceLattice lattice(d);

    std::cout << "decoder comparison: d=" << d << ", dephasing p=" << p
              << ", " << rounds << " lifetime cycles each, " << threads
              << " thread(s)\n\n";

    struct Family
    {
        std::string label;
        DecoderFactory factory;
    };
    const std::vector<Family> families{
        {"mesh", meshDecoderFactory(MeshConfig::finalDesign())},
        {"mwpm", mwpmDecoderFactory()},
        {"union_find", unionFindDecoderFactory()},
        {"greedy", greedyDecoderFactory()},
    };

    EngineOptions options;
    options.threads = threads;
    Engine engine(options);

    TablePrinter table({"decoder", "logical errors", "PL",
                        "avg decode (sim ns)", "max decode (sim ns)"});
    for (const Family &family : families) {
        CellSpec cell;
        cell.lattice = &lattice;
        cell.physicalRate = p;
        cell.lifetimeMode = true;
        cell.rule = StopRule{rounds, rounds, 1u << 30};
        cell.seed = 777; // same stream for every decoder family
        cell.factory = &family.factory;
        const MonteCarloResult res = engine.runCell(cell);

        const bool mesh = res.cycles.count() > 0;
        const double period = kMeshCyclePeriodPs * 1e-3;
        table.addRow(
            {family.label, std::to_string(res.failures),
             TablePrinter::num(res.logicalErrorRate, 3),
             mesh ? TablePrinter::num(res.cycles.mean() * period, 3)
                  : std::string("offline"),
             mesh ? TablePrinter::num(res.cycles.max() * period, 3)
                  : std::string("offline")});
    }
    table.print(std::cout);

    std::cout << "\nThe mesh decoder trades accuracy for online "
                 "operation: it loses a constant factor to MWPM but "
                 "answers within the ~400 ns syndrome cycle, avoiding "
                 "the exponential backlog (Sections III and VIII).\n";
    return 0;
}
