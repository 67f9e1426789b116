/**
 * @file
 * Pauli error configuration on the data qubits of one lattice, stored as
 * separate word-packed X and Z bit planes (a Y error sets both).
 * Corrections compose by XOR, matching Pauli group multiplication modulo
 * phase; on PackedBits that is a handful of 64-bit word XORs.
 */

#ifndef NISQPP_SURFACE_ERROR_STATE_HH
#define NISQPP_SURFACE_ERROR_STATE_HH

#include <cstddef>

#include "common/packed_bits.hh"
#include "pauli/pauli.hh"
#include "surface/lattice.hh"

namespace nisqpp {

/** X/Z error bit planes over the data qubits of a lattice. */
class ErrorState
{
  public:
    explicit ErrorState(const SurfaceLattice &lattice);

    const SurfaceLattice &lattice() const { return *lattice_; }

    /** Clear all error bits. */
    void clear();

    /** Multiply @p p onto data qubit @p data_idx (hot path, DCHECKed). */
    void
    inject(int data_idx, Pauli p)
    {
        NISQPP_DCHECK(data_idx >= 0 && data_idx < lattice_->numData(),
                      "ErrorState::inject: index out of range");
        if (hasX(p))
            x_.flip(data_idx);
        if (hasZ(p))
            z_.flip(data_idx);
    }

    /** Flip one component on one data qubit (hot path, DCHECKed). */
    void
    flip(ErrorType type, int data_idx)
    {
        NISQPP_DCHECK(data_idx >= 0 && data_idx < lattice_->numData(),
                      "ErrorState::flip: index out of range");
        mut(type).flip(data_idx);
    }

    /**
     * Flip the @p type components of data qubits 64w..64w+63 set in
     * @p bits (word-packed sampling; see PackedBits::xorWord).
     */
    void
    xorWord(ErrorType type, std::size_t w, PackedBits::Word bits)
    {
        mut(type).xorWord(w, bits);
    }

    /** XOR another error/correction pattern into this one. */
    void compose(const ErrorState &other);

    /** Current Pauli on data qubit @p data_idx (bounds-checked). */
    Pauli at(int data_idx) const;

    /** Whether @p data_idx carries a @p type component (hot, DCHECKed). */
    bool
    has(ErrorType type, int data_idx) const
    {
        return bits(type).get(data_idx);
    }

    /** Number of data qubits carrying a @p type component. */
    int weight(ErrorType type) const { return bits(type).popcount(); }

    /** Number of data qubits carrying any error. */
    int weight() const { return PackedBits::popcountOr(x_, z_); }

    /** The word-packed @p type error plane. */
    const PackedBits &
    bits(ErrorType type) const
    {
        return type == ErrorType::X ? x_ : z_;
    }

  private:
    const SurfaceLattice *lattice_;
    PackedBits x_;
    PackedBits z_;

    PackedBits &mut(ErrorType type)
    {
        return type == ErrorType::X ? x_ : z_;
    }
};

} // namespace nisqpp

#endif // NISQPP_SURFACE_ERROR_STATE_HH
