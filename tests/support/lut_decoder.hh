/**
 * @file
 * Exhaustive lookup-table decoder for small lattices. For every possible
 * syndrome it precomputes a minimum-weight correction by brute force over
 * all error patterns, which upper-bounds the accuracy of any trained
 * inference decoder on the same inputs. It stands in for the neural
 * network decoder baseline [6] whose artifacts are not public. A test
 * oracle: the cross-decoder and workspace tests compare against it.
 */

#ifndef NISQPP_TESTS_SUPPORT_LUT_DECODER_HH
#define NISQPP_TESTS_SUPPORT_LUT_DECODER_HH

#include <cstdint>

#include "decoders/decoder.hh"

namespace nisqpp {

/**
 * Table-driven minimum-weight decoder. Construction cost is
 * O(2^numData); usable up to d = 3 (8192 patterns) and kept assertive
 * beyond that.
 */
class LutDecoder : public Decoder
{
  public:
    LutDecoder(const SurfaceLattice &lattice, ErrorType type);

    using Decoder::decodeBatch;

    /** Table lookup of each syndrome in turn (no scratch needed). */
    void decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     Correction *out, TrialWorkspace &ws) override;

    std::string name() const override { return "lut"; }

    /** Number of syndrome entries in the table. */
    std::size_t tableSize() const { return table_.size(); }

  private:
    std::uint32_t syndromeKey(const Syndrome &syndrome) const;

    std::vector<std::uint32_t> table_; ///< syndrome key -> data bitmask
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_LUT_DECODER_HH
