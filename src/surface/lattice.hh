/**
 * @file
 * Geometry of the unrotated planar surface code used throughout the
 * repository (paper Fig. 2).
 *
 * A distance-d lattice lives on a (2d-1) x (2d-1) grid:
 *  - sites with r+c even are data qubits (d^2 + (d-1)^2 of them),
 *  - sites with even r and odd c are X ancillas (detect Z data errors),
 *  - sites with odd r and even c are Z ancillas (detect X data errors).
 *
 * Z-error chains terminate on the west/east lattice boundaries and a
 * horizontal crossing is a logical Z error; X-error chains terminate
 * north/south. At d=9 the grid holds 289 qubits, matching the paper.
 */

#ifndef NISQPP_SURFACE_LATTICE_HH
#define NISQPP_SURFACE_LATTICE_HH

#include <cstddef>
#include <vector>

#include "common/packed_bits.hh"

namespace nisqpp {

/** Role of a grid site. */
enum class SiteRole : unsigned char
{
    Data,     ///< data qubit (r+c even)
    AncillaX, ///< X-stabilizer ancilla (even r, odd c)
    AncillaZ, ///< Z-stabilizer ancilla (odd r, even c)
};

/**
 * The type of *data* error being detected/decoded. ErrorType::Z errors
 * are detected by X ancillas; ErrorType::X errors by Z ancillas. The
 * decoder runs symmetrically for both (paper Section VII).
 */
enum class ErrorType : unsigned char
{
    X,
    Z,
};

/** Grid coordinate. */
struct Coord
{
    int row;
    int col;

    bool operator==(const Coord &o) const = default;
};

/**
 * Immutable geometry of one distance-d planar surface code lattice,
 * with precomputed index maps and adjacency used by every decoder.
 */
class SurfaceLattice
{
  public:
    /** @param distance Code distance d >= 2. */
    explicit SurfaceLattice(int distance);

    int distance() const { return d_; }

    /** Grid side length, 2d - 1. */
    int gridSize() const { return n_; }

    /** Total number of grid sites (data + ancilla qubits). */
    int numSites() const { return n_ * n_; }

    int numData() const { return static_cast<int>(dataSites_.size()); }
    int numXAncilla() const { return static_cast<int>(xSites_.size()); }
    int numZAncilla() const { return static_cast<int>(zSites_.size()); }

    /** Number of ancillas detecting @p type errors (always d(d-1)). */
    int numAncilla(ErrorType type) const;

    /** Role of the site at @p rc. */
    SiteRole role(Coord rc) const;

    bool inBounds(Coord rc) const;

    /** Dense site id (row-major). */
    int siteIndex(Coord rc) const { return rc.row * n_ + rc.col; }

    /** Compact data index of a data site; panics on non-data sites. */
    int dataIndex(Coord rc) const;

    /**
     * Compact data index of the in-bounds site @p rc, or -1 for an
     * ancilla site: the unchecked table read behind dataIndex().
     */
    int dataIndexOrNone(Coord rc) const
    {
        return dataIndexBySite_[siteIndex(rc)];
    }

    /** Coordinate of compact data index @p idx. */
    Coord dataCoord(int idx) const { return dataSites_.at(idx); }

    /**
     * Compact ancilla index (within the ancilla family that detects
     * @p type errors) of an ancilla site.
     */
    int ancillaIndex(ErrorType type, Coord rc) const;

    /** Coordinate of ancilla @p idx in the family detecting @p type. */
    Coord ancillaCoord(ErrorType type, int idx) const;

    /** Every ancillaCoord() of the family detecting @p type, by index. */
    const std::vector<Coord> &ancillaSites(ErrorType type) const
    {
        return type == ErrorType::Z ? xSites_ : zSites_;
    }

    /**
     * Data-qubit neighbors (compact data indices) stabilized by ancilla
     * @p idx of the family detecting @p type; 2..4 entries at boundaries.
     */
    const std::vector<int> &
    ancillaDataNeighbors(ErrorType type, int idx) const;

    /**
     * Ancilla neighbors (compact ancilla indices in the detecting family)
     * of data qubit @p data_idx for error type @p type. One entry means
     * this data qubit borders a valid boundary for that error type.
     */
    const std::vector<int> &
    dataAncillaNeighbors(ErrorType type, int data_idx) const;

    /**
     * Whether data qubit @p data_idx can terminate a @p type error chain
     * on a lattice boundary (i.e. it has a single detecting ancilla).
     */
    bool touchesBoundary(ErrorType type, int data_idx) const;

    /**
     * Graph distance between two ancillas of the same detecting family:
     * the minimal number of data-qubit errors connecting them
     * (half the Manhattan grid distance).
     */
    int ancillaGraphDistance(ErrorType type, int a, int b) const;

    /**
     * Minimal number of data-qubit errors connecting ancilla @p a to the
     * nearest valid boundary for @p type errors.
     */
    int ancillaBoundaryDistance(ErrorType type, int a) const;

    /**
     * Data qubits of the crossing logical operator that *detects* @p type
     * errors: for Z errors the logical X support (west column), for X
     * errors the logical Z support (north row). A residual @p type error
     * with trivial syndrome is a logical error iff its overlap with this
     * support is odd.
     */
    const std::vector<int> &logicalDetectorSupport(ErrorType type) const;

    /**
     * Data-qubit mask (numData() bits) of the stabilizer measured by
     * ancilla @p idx of the family detecting @p type: the word-packed
     * form of ancillaDataNeighbors(). Syndrome extraction is a single
     * AND + popcount-parity against a numData()-bit error plane.
     */
    const PackedBits &stabilizerMask(ErrorType type, int idx) const;

    /** Word-packed form of logicalDetectorSupport(). */
    const PackedBits &logicalSupportMask(ErrorType type) const;

    /**
     * Transposed incidence: the ancilla-index mask (numAncilla(type)
     * bits) of the detecting ancillas of data qubit @p data_idx.
     * Sparse syndrome extraction XORs one of these per set error bit.
     */
    const PackedBits &dataIncidenceMask(ErrorType type,
                                        int data_idx) const;

  private:
    int d_;
    int n_;
    std::vector<Coord> dataSites_;
    std::vector<Coord> xSites_;
    std::vector<Coord> zSites_;
    std::vector<int> dataIndexBySite_;
    std::vector<int> xIndexBySite_;
    std::vector<int> zIndexBySite_;
    // [0] = ErrorType::X family (Z ancillas), [1] = ErrorType::Z family.
    std::vector<std::vector<int>> ancillaData_[2];
    std::vector<std::vector<int>> dataAncilla_[2];
    std::vector<int> logicalSupport_[2];
    std::vector<PackedBits> stabilizerMask_[2];
    std::vector<PackedBits> dataIncidence_[2];
    PackedBits logicalMask_[2];

    static int typeSlot(ErrorType type) { return type == ErrorType::X ? 0 : 1; }
};

} // namespace nisqpp

#endif // NISQPP_SURFACE_LATTICE_HH
