/**
 * @file
 * Pauli-frame simulator for Clifford circuits.
 *
 * The stabilizer circuits of paper Fig. 3 are Clifford circuits; Pauli
 * errors injected anywhere propagate through them by conjugation. Tracking
 * only the Pauli frame (one X bit and one Z bit per qubit, word-packed)
 * reproduces the measurement-outcome *flips* relative to the noiseless
 * run, which is all the error-correction substrate needs, in O(1) per
 * gate — and lets mask-based consumers (the stabilizer circuit's
 * measurement gather) reduce whole planes with AND/popcount. A test
 * oracle, used by the stabilizer circuit model.
 */

#ifndef NISQPP_TESTS_SUPPORT_PAULI_FRAME_HH
#define NISQPP_TESTS_SUPPORT_PAULI_FRAME_HH

#include <cstddef>

#include "common/packed_bits.hh"
#include "pauli/pauli.hh"

namespace nisqpp {

/**
 * Tracks a Pauli error frame across an n-qubit Clifford circuit.
 *
 * Conjugation rules implemented (phase-free):
 *  - H:    X <-> Z
 *  - S:    X -> Y (i.e. X gains a Z component)
 *  - CNOT: X on control copies to target, Z on target copies to control
 *  - CZ:   X on one qubit adds Z on the other
 */
class PauliFrame
{
  public:
    /** @param num_qubits Number of qubits tracked by the frame. */
    explicit PauliFrame(std::size_t num_qubits);

    std::size_t numQubits() const { return x_.size(); }

    /** Reset the whole frame to identity. */
    void clear();

    /** Reset one qubit's frame (e.g. after ancilla re-initialization). */
    void reset(std::size_t q);

    /** Multiply @p p into qubit @p q's frame (error injection). */
    void inject(std::size_t q, Pauli p);

    /** Current frame on qubit @p q. */
    Pauli frame(std::size_t q) const;

    /** Word-packed planes, for mask-based gathers. @{ */
    const PackedBits &xPlane() const { return x_; }
    const PackedBits &zPlane() const { return z_; }
    /** @} */

    /** Clear both components on every qubit set in @p mask. */
    void
    clearMasked(const PackedBits &mask)
    {
        x_.andNotWith(mask);
        z_.andNotWith(mask);
    }

    /** @name Clifford gate conjugations @{ */
    void applyH(std::size_t q);
    void applyS(std::size_t q);
    void applyCnot(std::size_t control, std::size_t target);
    void applyCz(std::size_t a, std::size_t b);
    /** @} */

    /**
     * Measure qubit @p q in the Z basis.
     *
     * @return true when the outcome is flipped relative to the noiseless
     *         circuit, i.e. when the frame has an X component on @p q.
     *         Measurement collapses the frame's X part on @p q (the Z
     *         part is unobservable afterwards and is also cleared).
     */
    bool measureZ(std::size_t q);

  private:
    void
    checkIndex(std::size_t q) const
    {
        NISQPP_DCHECK(q < x_.size(),
                      "PauliFrame: qubit index out of range");
    }

    PackedBits x_;
    PackedBits z_;
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_PAULI_FRAME_HH
