/**
 * @file Quickstart: build a distance-5 surface code, inject a couple of
 * Z errors, extract the syndrome, decode it on the SFQ mesh decoder,
 * and verify the correction — the minimal end-to-end use of the
 * library's public API.
 */

#include <iostream>

#include "core/mesh_decoder.hh"
#include "surface/logical.hh"

int
main()
{
    using namespace nisqpp;

    // 1. A distance-5 planar surface code lattice.
    SurfaceLattice lattice(5);
    std::cout << "lattice: d=" << lattice.distance() << ", "
              << lattice.numData() << " data qubits, "
              << lattice.numXAncilla() << "+" << lattice.numZAncilla()
              << " ancillas on a " << lattice.gridSize() << "x"
              << lattice.gridSize() << " grid\n";

    // 2. Inject a short Z error chain.
    ErrorState errors(lattice);
    errors.inject(lattice.dataIndex({4, 4}), Pauli::Z);
    errors.inject(lattice.dataIndex({5, 5}), Pauli::Z);
    std::cout << "injected Z errors at (4,4) and (5,5)\n";

    // 3. Extract the error syndrome (hot X-ancillas).
    const Syndrome syndrome = extractSyndrome(errors, ErrorType::Z);
    std::cout << "syndrome: " << syndrome.weight()
              << " hot ancillas:";
    for (int a : syndrome.hotList()) {
        const Coord c = lattice.ancillaCoord(ErrorType::Z, a);
        std::cout << " (" << c.row << "," << c.col << ")";
    }
    std::cout << "\n";

    // 4. Decode on the SFQ mesh (the paper's final design).
    MeshDecoder decoder(lattice, ErrorType::Z);
    const Correction correction = decoder.decode(syndrome);
    std::cout << decoder.name() << " corrected "
              << correction.dataFlips.size() << " qubits in "
              << decoder.lastStats().cycles << " mesh cycles ("
              << decoder.lastStats().nanoseconds()
              << " ns at the synthesized clock)\n";

    // 5. Verify: residual must be stabilizer-trivial.
    correction.applyTo(errors, ErrorType::Z);
    const FailureReport report = classifyResidual(errors, ErrorType::Z);
    std::cout << "residual syndrome nonzero: "
              << (report.syndromeNonzero ? "yes" : "no")
              << ", logical flip: "
              << (report.logicalFlip ? "yes" : "no") << " -> "
              << (report.failed() ? "FAILED" : "corrected") << "\n";
    return report.failed() ? 1 : 0;
}
