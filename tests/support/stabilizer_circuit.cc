#include "support/stabilizer_circuit.hh"

#include "common/logging.hh"

namespace nisqpp {

StabilizerCircuit::StabilizerCircuit(const SurfaceLattice &lattice)
    : lattice_(&lattice),
      scratchFrame_(static_cast<std::size_t>(lattice.numSites()))
{
    buildSchedule(ErrorType::Z);
    buildSchedule(ErrorType::X);

    const std::size_t sites =
        static_cast<std::size_t>(lattice.numSites());
    dataSite_.reserve(lattice.numData());
    for (int d = 0; d < lattice.numData(); ++d)
        dataSite_.push_back(lattice.siteIndex(lattice.dataCoord(d)));

    for (const ErrorType type : {ErrorType::X, ErrorType::Z}) {
        const int slot = typeSlot(type);
        gather_[slot].resize(lattice.numAncilla(type));
        ancillaSites_[slot].resize(sites);
        for (int a = 0; a < lattice.numAncilla(type); ++a) {
            PackedBits &mask = gather_[slot][a];
            mask.resize(sites);
            for (int d : lattice.ancillaDataNeighbors(type, a))
                mask.set(dataSite_[d], true);
            ancillaSites_[slot].set(
                lattice.siteIndex(lattice.ancillaCoord(type, a)), true);
        }
    }
}

void
StabilizerCircuit::buildSchedule(ErrorType type)
{
    const SurfaceLattice &lat = *lattice_;
    auto &sched = (type == ErrorType::Z) ? scheduleX_ : scheduleZ_;
    sched.clear();

    for (int a = 0; a < lat.numAncilla(type); ++a) {
        const int anc_site = lat.siteIndex(lat.ancillaCoord(type, a));
        sched.push_back({OpKind::Reset, anc_site, 0});
        if (type == ErrorType::Z) {
            // X stabilizer: |0> -H-> |+>, CNOT(ancilla -> data)*, H, MZ.
            sched.push_back({OpKind::H, anc_site, 0});
            for (int d : lat.ancillaDataNeighbors(type, a)) {
                const int data_site = lat.siteIndex(lat.dataCoord(d));
                sched.push_back({OpKind::Cnot, anc_site, data_site});
            }
            sched.push_back({OpKind::H, anc_site, 0});
        } else {
            // Z stabilizer: CNOT(data -> ancilla)*, MZ.
            for (int d : lat.ancillaDataNeighbors(type, a)) {
                const int data_site = lat.siteIndex(lat.dataCoord(d));
                sched.push_back({OpKind::Cnot, data_site, anc_site});
            }
        }
        sched.push_back({OpKind::Measure, anc_site, a});
    }
}

const std::vector<StabilizerCircuit::Op> &
StabilizerCircuit::schedule(ErrorType type) const
{
    return type == ErrorType::Z ? scheduleX_ : scheduleZ_;
}

void
StabilizerCircuit::loadErrors(PauliFrame &frame, const ErrorState &state)
    const
{
    const SurfaceLattice &lat = *lattice_;
    require(frame.numQubits() ==
                static_cast<std::size_t>(lat.numSites()),
            "loadErrors: frame size mismatch");
    state.bits(ErrorType::X).forEachSet([&](int d) {
        frame.inject(dataSite_[d], Pauli::X);
    });
    state.bits(ErrorType::Z).forEachSet([&](int d) {
        frame.inject(dataSite_[d], Pauli::Z);
    });
}

Syndrome
StabilizerCircuit::measure(PauliFrame &frame, ErrorType type) const
{
    Syndrome syn(*lattice_, type);
    measureInto(frame, type, syn);
    return syn;
}

void
StabilizerCircuit::measureInto(PauliFrame &frame, ErrorType type,
                               Syndrome &out) const
{
    // Each ancilla block starts with a Reset, so outcomes depend only
    // on the data sites: an X-stabilizer block accumulates its data
    // neighbors' Z components onto the ancilla (H-conjugated CNOTs), a
    // Z-stabilizer block their X components — one masked parity each.
    // The block then measures, leaving the ancilla frame cleared; data
    // frames are never modified (the ancilla's own components are zero
    // when the copy gates run).
    NISQPP_DCHECK(out.type() == type &&
                      out.size() == lattice_->numAncilla(type),
                  "measureInto: syndrome shape mismatch");
    require(frame.numQubits() ==
                static_cast<std::size_t>(lattice_->numSites()),
            "measure: frame size mismatch");
    const int slot = typeSlot(type);
    const PackedBits &plane = (type == ErrorType::Z)
                                  ? frame.zPlane()
                                  : frame.xPlane();
    const int na = lattice_->numAncilla(type);
    for (int a = 0; a < na; ++a)
        out.set(a, plane.parityAnd(gather_[slot][a]));
    frame.clearMasked(ancillaSites_[slot]);
}

Syndrome
StabilizerCircuit::extract(const ErrorState &state, ErrorType type) const
{
    PauliFrame frame(lattice_->numSites());
    loadErrors(frame, state);
    return measure(frame, type);
}

void
StabilizerCircuit::extractInto(const ErrorState &state, ErrorType type,
                               Syndrome &out)
{
    scratchFrame_.clear();
    loadErrors(scratchFrame_, state);
    measureInto(scratchFrame_, type, out);
}

} // namespace nisqpp
