#include "surface/lattice.hh"

#include <array>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace nisqpp {

SurfaceLattice::SurfaceLattice(int distance)
    : d_(distance), n_(2 * distance - 1)
{
    require(distance >= 2, "SurfaceLattice: distance must be >= 2");

    dataIndexBySite_.assign(numSites(), -1);
    xIndexBySite_.assign(numSites(), -1);
    zIndexBySite_.assign(numSites(), -1);

    for (int r = 0; r < n_; ++r) {
        for (int c = 0; c < n_; ++c) {
            const Coord rc{r, c};
            const int site = siteIndex(rc);
            if ((r + c) % 2 == 0) {
                dataIndexBySite_[site] = static_cast<int>(dataSites_.size());
                dataSites_.push_back(rc);
            } else if (r % 2 == 0) {
                xIndexBySite_[site] = static_cast<int>(xSites_.size());
                xSites_.push_back(rc);
            } else {
                zIndexBySite_[site] = static_cast<int>(zSites_.size());
                zSites_.push_back(rc);
            }
        }
    }

    static const std::array<Coord, 4> kOffsets =
        {{{-1, 0}, {0, 1}, {1, 0}, {0, -1}}};

    for (const ErrorType type : {ErrorType::X, ErrorType::Z}) {
        const int slot = typeSlot(type);
        const auto &sites = (type == ErrorType::Z) ? xSites_ : zSites_;
        // At most four neighbors each: one allocation per list.
        ancillaData_[slot].resize(sites.size());
        for (auto &list : ancillaData_[slot])
            list.reserve(kOffsets.size());
        dataAncilla_[slot].resize(dataSites_.size());
        for (auto &list : dataAncilla_[slot])
            list.reserve(kOffsets.size());
        for (std::size_t a = 0; a < sites.size(); ++a) {
            for (const auto &off : kOffsets) {
                const Coord nb{sites[a].row + off.row,
                               sites[a].col + off.col};
                if (!inBounds(nb))
                    continue;
                const int di = dataIndexBySite_[siteIndex(nb)];
                require(di >= 0, "ancilla neighbor is not a data qubit");
                ancillaData_[slot][a].push_back(di);
                dataAncilla_[slot][di].push_back(static_cast<int>(a));
            }
        }
    }

    // Crossing logical operators. Logical X runs north-south on the west
    // column (detects Z errors); logical Z runs west-east on the north
    // row (detects X errors).
    for (int r = 0; r < n_; r += 2)
        logicalSupport_[typeSlot(ErrorType::Z)]
            .push_back(dataIndexBySite_[siteIndex({r, 0})]);
    for (int c = 0; c < n_; c += 2)
        logicalSupport_[typeSlot(ErrorType::X)]
            .push_back(dataIndexBySite_[siteIndex({0, c})]);

    // Word-packed views of the adjacency and logical supports, so the
    // per-trial hot paths (syndrome extraction, crossing parity) run as
    // AND + popcount over a few words instead of per-neighbor loops.
    for (int slot = 0; slot < 2; ++slot) {
        stabilizerMask_[slot].resize(ancillaData_[slot].size());
        for (std::size_t a = 0; a < ancillaData_[slot].size(); ++a) {
            PackedBits &mask = stabilizerMask_[slot][a];
            mask.resize(dataSites_.size());
            for (int di : ancillaData_[slot][a])
                mask.set(di, true);
        }
        dataIncidence_[slot].resize(dataSites_.size());
        for (std::size_t di = 0; di < dataSites_.size(); ++di) {
            PackedBits &mask = dataIncidence_[slot][di];
            mask.resize(ancillaData_[slot].size());
            for (int a : dataAncilla_[slot][di])
                mask.set(a, true);
        }
        logicalMask_[slot].resize(dataSites_.size());
        for (int di : logicalSupport_[slot])
            logicalMask_[slot].set(di, true);
    }
}

int
SurfaceLattice::numAncilla(ErrorType type) const
{
    return type == ErrorType::Z ? numXAncilla() : numZAncilla();
}

SiteRole
SurfaceLattice::role(Coord rc) const
{
    require(inBounds(rc), "role: coordinate out of bounds");
    if ((rc.row + rc.col) % 2 == 0)
        return SiteRole::Data;
    return rc.row % 2 == 0 ? SiteRole::AncillaX : SiteRole::AncillaZ;
}

bool
SurfaceLattice::inBounds(Coord rc) const
{
    return rc.row >= 0 && rc.row < n_ && rc.col >= 0 && rc.col < n_;
}

int
SurfaceLattice::dataIndex(Coord rc) const
{
    require(inBounds(rc), "dataIndex: out of bounds");
    const int idx = dataIndexBySite_[siteIndex(rc)];
    require(idx >= 0, "dataIndex: site is not a data qubit");
    return idx;
}

int
SurfaceLattice::ancillaIndex(ErrorType type, Coord rc) const
{
    require(inBounds(rc), "ancillaIndex: out of bounds");
    const auto &map = (type == ErrorType::Z) ? xIndexBySite_ : zIndexBySite_;
    const int idx = map[siteIndex(rc)];
    require(idx >= 0, "ancillaIndex: site is not an ancilla of this family");
    return idx;
}

Coord
SurfaceLattice::ancillaCoord(ErrorType type, int idx) const
{
    return ancillaSites(type).at(idx);
}

const std::vector<int> &
SurfaceLattice::ancillaDataNeighbors(ErrorType type, int idx) const
{
    return ancillaData_[typeSlot(type)].at(idx);
}

const std::vector<int> &
SurfaceLattice::dataAncillaNeighbors(ErrorType type, int data_idx) const
{
    return dataAncilla_[typeSlot(type)].at(data_idx);
}

bool
SurfaceLattice::touchesBoundary(ErrorType type, int data_idx) const
{
    return dataAncillaNeighbors(type, data_idx).size() < 2;
}

int
SurfaceLattice::ancillaGraphDistance(ErrorType type, int a, int b) const
{
    const Coord ca = ancillaCoord(type, a);
    const Coord cb = ancillaCoord(type, b);
    const int manhattan =
        std::abs(ca.row - cb.row) + std::abs(ca.col - cb.col);
    // Ancillas of one family sit on a sublattice of even Manhattan
    // separation; each data-qubit error covers two grid hops.
    return manhattan / 2;
}

int
SurfaceLattice::ancillaBoundaryDistance(ErrorType type, int a) const
{
    const Coord ca = ancillaCoord(type, a);
    if (type == ErrorType::Z) {
        // X ancillas at odd columns; chains terminate west/east.
        const int west = (ca.col + 1) / 2;
        const int east = (n_ - ca.col) / 2;
        return std::min(west, east);
    }
    const int north = (ca.row + 1) / 2;
    const int south = (n_ - ca.row) / 2;
    return std::min(north, south);
}

const std::vector<int> &
SurfaceLattice::logicalDetectorSupport(ErrorType type) const
{
    return logicalSupport_[typeSlot(type)];
}

const PackedBits &
SurfaceLattice::stabilizerMask(ErrorType type, int idx) const
{
    NISQPP_DCHECK(
        idx >= 0 &&
            idx < static_cast<int>(stabilizerMask_[typeSlot(type)].size()),
        "stabilizerMask: ancilla index out of range");
    return stabilizerMask_[typeSlot(type)][idx];
}

const PackedBits &
SurfaceLattice::logicalSupportMask(ErrorType type) const
{
    return logicalMask_[typeSlot(type)];
}

const PackedBits &
SurfaceLattice::dataIncidenceMask(ErrorType type, int data_idx) const
{
    NISQPP_DCHECK(
        data_idx >= 0 &&
            data_idx <
                static_cast<int>(dataIncidence_[typeSlot(type)].size()),
        "dataIncidenceMask: data index out of range");
    return dataIncidence_[typeSlot(type)][data_idx];
}

} // namespace nisqpp
