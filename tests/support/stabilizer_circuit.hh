/**
 * @file
 * The stabilizer measurement circuits of paper Fig. 3, executed on the
 * Pauli-frame simulator. An X-stabilizer round applies H on the ancilla,
 * CNOTs from the ancilla onto its data neighbors, H, then measures; a
 * Z-stabilizer round applies CNOTs from the data neighbors into the
 * ancilla and measures. One full cycle measures every ancilla.
 *
 * Because every ancilla is re-initialized at the start of its block, a
 * full measurement round of one family reduces to a *measurement
 * gather*: each outcome is the parity of one frame plane over the
 * ancilla's data-neighbor sites, followed by clearing the family's
 * ancilla sites. measure() uses precomputed per-ancilla gather masks
 * (AND + popcount per outcome); the equivalence tests pin it against a
 * walk of the gate schedule op by op. A test oracle: the simulator
 * extracts by parity, and the equivalence tests pin circuit == parity.
 */

#ifndef NISQPP_TESTS_SUPPORT_STABILIZER_CIRCUIT_HH
#define NISQPP_TESTS_SUPPORT_STABILIZER_CIRCUIT_HH

#include <cstddef>
#include <vector>

#include "common/packed_bits.hh"
#include "support/pauli_frame.hh"
#include "surface/lattice.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

/**
 * Executable schedule of one full stabilizer measurement cycle on a
 * lattice. Frame qubits are grid sites (data and ancilla alike).
 */
class StabilizerCircuit
{
  public:
    /** Elementary operations of the schedule. */
    enum class OpKind : unsigned char
    {
        H,       ///< Hadamard on `a`
        Cnot,    ///< CNOT with control `a`, target `b`
        Measure, ///< Z measurement of ancilla `a`, result index `b`
        Reset,   ///< ancilla re-initialization of `a`
    };

    struct Op
    {
        OpKind kind;
        int a;
        int b;
    };

    explicit StabilizerCircuit(const SurfaceLattice &lattice);

    const SurfaceLattice &lattice() const { return *lattice_; }

    /** The schedule for the ancilla family detecting @p type errors. */
    const std::vector<Op> &schedule(ErrorType type) const;

    /**
     * Inject @p state's data errors into @p frame (frame must span
     * lattice().numSites() qubits).
     */
    void loadErrors(PauliFrame &frame, const ErrorState &state) const;

    /**
     * Run one measurement round of the family detecting @p type on
     * @p frame and return the resulting syndrome. Measurement outcomes
     * are reported as flips relative to the noiseless circuit, exactly
     * the detection events of Section II-C1. Uses the precomputed
     * gather masks; equivalent to running schedule() op by op for any
     * frame.
     */
    Syndrome measure(PauliFrame &frame, ErrorType type) const;

    /** Allocation-free variant of measure(), filling @p out. */
    void measureInto(PauliFrame &frame, ErrorType type,
                     Syndrome &out) const;

    /**
     * Convenience: full extraction through the circuits for @p state.
     * Equivalent to direct parity extraction (verified in tests).
     */
    Syndrome extract(const ErrorState &state, ErrorType type) const;

    /**
     * Allocation-free extraction into @p out, reusing an internal
     * scratch frame. Not thread-safe across concurrent callers on the
     * same StabilizerCircuit (each simulator owns its own instance).
     */
    void extractInto(const ErrorState &state, ErrorType type,
                     Syndrome &out);

  private:
    void buildSchedule(ErrorType type);

    const SurfaceLattice *lattice_;
    std::vector<Op> scheduleX_; ///< detects Z errors (X ancillas)
    std::vector<Op> scheduleZ_; ///< detects X errors (Z ancillas)

    // Measurement-gather tables, per detecting family: the site mask of
    // each ancilla's data neighbors, the family's ancilla-site mask
    // (cleared after the round) and the site id of each data qubit.
    std::vector<PackedBits> gather_[2];
    PackedBits ancillaSites_[2];
    std::vector<int> dataSite_;

    PauliFrame scratchFrame_; ///< reused by extractInto()

    static int typeSlot(ErrorType type)
    {
        return type == ErrorType::X ? 0 : 1;
    }
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_STABILIZER_CIRCUIT_HH
