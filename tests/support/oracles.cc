#include "support/oracles.hh"

namespace nisqpp {

Syndrome
extractSyndromeReference(const ErrorState &state, ErrorType type)
{
    const SurfaceLattice &lat = state.lattice();
    Syndrome syn(lat, type);
    for (int a = 0; a < lat.numAncilla(type); ++a) {
        char parity = 0;
        for (int d : lat.ancillaDataNeighbors(type, a))
            parity ^= static_cast<char>(state.has(type, d));
        syn.set(a, parity);
    }
    return syn;
}

Syndrome
measureViaSchedule(const StabilizerCircuit &circuit, PauliFrame &frame,
                   ErrorType type)
{
    using OpKind = StabilizerCircuit::OpKind;
    Syndrome syn(circuit.lattice(), type);
    for (const StabilizerCircuit::Op &op : circuit.schedule(type)) {
        switch (op.kind) {
          case OpKind::Reset:
            frame.reset(op.a);
            break;
          case OpKind::H:
            frame.applyH(op.a);
            break;
          case OpKind::Cnot:
            frame.applyCnot(op.a, op.b);
            break;
          case OpKind::Measure:
            syn.set(op.b, frame.measureZ(op.a));
            break;
        }
    }
    return syn;
}

} // namespace nisqpp
