/**
 * @file
 * Error syndromes (paper Section II-C1): the bit string of ancilla
 * measurement outcomes, word-packed. Ancillas returning +1 ("hot
 * syndromes") mark odd error parity in their data-qubit sets. Extraction
 * is available both as direct stabilizer parity — AND + popcount against
 * the lattice's precomputed stabilizer masks — and through the full
 * Fig. 3 stabilizer circuits executed on the Pauli-frame simulator; the
 * two agree by construction and are cross-checked in tests, along with a
 * retained per-neighbor reference implementation.
 */

#ifndef NISQPP_SURFACE_SYNDROME_HH
#define NISQPP_SURFACE_SYNDROME_HH

#include <vector>

#include "common/packed_bits.hh"
#include "surface/error_state.hh"
#include "surface/lattice.hh"

namespace nisqpp {

/** Syndrome bits for one ancilla family (the one detecting one type). */
class Syndrome
{
  public:
    Syndrome(const SurfaceLattice &lattice, ErrorType type);

    ErrorType type() const { return type_; }
    int size() const { return static_cast<int>(bits_.size()); }

    /** Hot-path accessors: unchecked reads/writes, debug-asserted. */
    bool hot(int ancilla_idx) const { return bits_.get(ancilla_idx); }
    void set(int ancilla_idx, bool v) { bits_.set(ancilla_idx, v); }
    void flip(int ancilla_idx) { bits_.flip(ancilla_idx); }
    void clear() { bits_.clear(); }

    /** Flip ancillas 64w..64w+63 set in @p bits (PackedBits::xorWord). */
    void
    xorWord(std::size_t w, PackedBits::Word bits)
    {
        bits_.xorWord(w, bits);
    }

    /** Number of hot (firing) ancillas. */
    int weight() const { return bits_.popcount(); }

    /** Compact indices of hot ancillas, ascending. */
    std::vector<int> hotList() const;

    /** Append hot ancilla indices to @p out (reuses its capacity). */
    void hotListInto(std::vector<int> &out) const;

    /** Invoke @p f(int ancilla_idx) on every hot ancilla, ascending. */
    template <typename F>
    void
    forEachHot(F &&f) const
    {
        bits_.forEachSet(f);
    }

    /** The word-packed outcome bits. */
    const PackedBits &bits() const { return bits_; }

    /** XOR an ancilla-space mask into the outcome bits (extraction). */
    void xorMask(const PackedBits &mask) { bits_.xorWith(mask); }

    bool operator==(const Syndrome &o) const = default;

  private:
    ErrorType type_;
    PackedBits bits_;
};

/**
 * Direct syndrome extraction: parity of @p type error bits over each
 * detecting ancilla's data neighbors (perfect measurement), computed
 * against the lattice's word-packed stabilizer masks.
 */
Syndrome extractSyndrome(const ErrorState &state, ErrorType type);

/**
 * Allocation-free variant: extract into @p out, which must belong to
 * the same lattice geometry and type (hot loops reuse one Syndrome).
 */
void extractSyndromeInto(const ErrorState &state, ErrorType type,
                         Syndrome &out);

/**
 * Whether any ancilla of the @p type-detecting family fires: equivalent
 * to extractSyndrome(state, type).weight() != 0 without materializing
 * the syndrome (early-exits on the first hot ancilla).
 */
bool syndromeNonzero(const ErrorState &state, ErrorType type);

/**
 * Apply a correction chain expressed as data-qubit flips and verify the
 * syndrome it would clear. Helper shared by decoder tests.
 */
Syndrome syndromeOfFlips(const SurfaceLattice &lattice, ErrorType type,
                         const std::vector<int> &data_flips);

} // namespace nisqpp

#endif // NISQPP_SURFACE_SYNDROME_HH
