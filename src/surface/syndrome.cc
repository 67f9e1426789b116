#include "surface/syndrome.hh"

#include "common/logging.hh"

namespace nisqpp {

Syndrome::Syndrome(const SurfaceLattice &lattice, ErrorType type)
    : type_(type), bits_(lattice.numAncilla(type))
{
}

std::vector<int>
Syndrome::hotList() const
{
    std::vector<int> hot;
    hotListInto(hot);
    return hot;
}

void
Syndrome::hotListInto(std::vector<int> &out) const
{
    out.clear();
    bits_.forEachSet([&out](int a) { out.push_back(a); });
}

Syndrome
extractSyndrome(const ErrorState &state, ErrorType type)
{
    Syndrome syn(state.lattice(), type);
    extractSyndromeInto(state, type, syn);
    return syn;
}

void
extractSyndromeInto(const ErrorState &state, ErrorType type, Syndrome &out)
{
    const SurfaceLattice &lat = state.lattice();
    NISQPP_DCHECK(out.type() == type && out.size() == lat.numAncilla(type),
                  "extractSyndromeInto: syndrome shape mismatch");
    // Transposed sparse extraction: each set error bit XORs its
    // detecting-ancilla incidence mask into the outcome words. For a
    // weight-w error this is O(w) word XORs; identical by linearity to
    // the per-ancilla stabilizer parities.
    out.clear();
    state.bits(type).forEachSet([&out, &lat, type](int d) {
        out.xorMask(lat.dataIncidenceMask(type, d));
    });
}

bool
syndromeNonzero(const ErrorState &state, ErrorType type)
{
    const SurfaceLattice &lat = state.lattice();
    const PackedBits &bits = state.bits(type);
    // Transposed accumulation on the stack: residual patterns are
    // sparse, so this XORs a handful of words. Falls back to the
    // per-ancilla scan for lattices beyond the fixed buffer (d > 16).
    constexpr std::size_t kMaxWords = 8;
    const std::size_t words =
        (static_cast<std::size_t>(lat.numAncilla(type)) +
         PackedBits::kWordBits - 1) /
        PackedBits::kWordBits;
    if (words <= kMaxWords) {
        std::uint64_t acc[kMaxWords] = {};
        bits.forEachSet([&](int d) {
            const std::uint64_t *mask =
                lat.dataIncidenceMask(type, d).words();
            for (std::size_t w = 0; w < words; ++w)
                acc[w] ^= mask[w];
        });
        for (std::size_t w = 0; w < words; ++w)
            if (acc[w])
                return true;
        return false;
    }
    for (int a = 0; a < lat.numAncilla(type); ++a)
        if (bits.parityAnd(lat.stabilizerMask(type, a)))
            return true;
    return false;
}

Syndrome
syndromeOfFlips(const SurfaceLattice &lattice, ErrorType type,
                const std::vector<int> &data_flips)
{
    ErrorState state(lattice);
    for (int d : data_flips)
        state.flip(type, d);
    return extractSyndrome(state, type);
}

} // namespace nisqpp
