#include "core/mesh_decoder.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "core/mesh_lanes.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {

// The native builds of the wide engines live in their own units
// (mesh_lanes_avx2.cc, mesh_lanes_avx512.cc); this one must not
// instantiate them.
#ifdef NISQPP_NATIVE_AVX2
extern template void MeshDecoder::decodeLanes<simd::Avx2>(
    LaneEngine<simd::W256> &, BatchSource &);
extern template void MeshDecoder::decodeLanes<simd::Avx2>(
    LaneEngine<simd::W256> &, FeedSource &);
#endif
#ifdef NISQPP_NATIVE_AVX512
extern template void MeshDecoder::decodeLanes<simd::Avx512>(
    LaneEngine<simd::W512> &, BatchSource &);
extern template void MeshDecoder::decodeLanes<simd::Avx512>(
    LaneEngine<simd::W512> &, FeedSource &);
#endif

using namespace mesh_lanes;

template <typename W>
int
MeshDecoder::laneCount(int span, int max_lanes)
{
    const int per_elem = std::max(1, std::min(max_lanes, 64 / span));
    return std::min(max_lanes, per_elem * elementsOf<W>());
}

template <typename W>
void
MeshDecoder::buildEngine(LaneEngine<W> &e, int max_lanes) const
{
    const int n = lattice().gridSize();
    const int per_elem =
        std::max(1, std::min(max_lanes, 64 / span_));
    e.perElem = per_elem;
    e.lanes = laneCount<W>(span_, max_lanes);
    // A lone lane would leave most of its word empty, so it stacks the
    // mesh as horizontal strips instead: strip j holds rows
    // [j*rows, (j+1)*rows) at bit offset j*span. Packed lanes keep one
    // mesh row per word (a single strip).
    const int strips = e.lanes == 1 ? std::min(span_, 64 / span_) : 1;
    e.rows = (span_ + strips - 1) / strips;
    const int lane_bits = strips * span_;
    const std::uint64_t low = lane_bits >= 64
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << lane_bits) - 1;

    // Lane addresses: lanes fill element 0's sub-lanes first, then
    // element 1's, ... so the lanes of one element are contiguous.
    for (int l = 0; l < e.lanes; ++l) {
        e.laneElem[l] = l / per_elem;
        e.laneBase[l] = (l % per_elem) * span_;
        e.laneSub[l] = low << e.laneBase[l];
    }

    // Single-lane row masks, then placed into every lane.
    std::vector<std::uint64_t> interior(span_, 0), bnd(span_, 0);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            interior[r + 1] |= std::uint64_t{1} << (c + 1);

    if (config_.boundaryMechanism) {
        // Without the request-grant arbitration both rings would
        // answer the same grow rays with pair pulses, composing two
        // boundary chains into a full crossing; the non-arbitrated
        // variant therefore hardwires a single responding side (the
        // final design lets the grant pick either side).
        const bool both_sides = config_.equidistantMechanism;
        if (type() == ErrorType::Z) {
            // Z-error chains terminate west/east; ring modules sit next
            // to the boundary data qubits (even interior rows).
            for (int r = 0; r < n; r += 2) {
                bnd[r + 1] |= std::uint64_t{1} << 0;
                if (both_sides)
                    bnd[r + 1] |= std::uint64_t{1} << (n + 1);
            }
        } else {
            for (int c = 0; c < n; c += 2) {
                bnd[0] |= std::uint64_t{1} << (c + 1);
                if (both_sides)
                    bnd[span_ - 1] |= std::uint64_t{1} << (c + 1);
            }
        }
    }

    // Padding rows of a short last strip keep all-zero masks.
    e.interior.assign(e.rows, W{});
    e.bnd.assign(e.rows, W{});
    e.valid.assign(e.rows, W{});
    W edgeE{}, edgeW{};
    for (int l = 0; l < e.lanes; ++l) {
        const int el = e.laneElem[l];
        const int base = e.laneBase[l];
        for (int r = 0; r < span_; ++r) {
            const RowSlot at = e.slot(r, span_);
            orElem(e.interior[at.word], el,
                   interior[r] << (base + at.shift));
            orElem(e.bnd[at.word], el, bnd[r] << (base + at.shift));
        }
        // Shift guards: drop each strip's edge column before an
        // east/west shift — exactly the bits the valid mask would kill
        // after an unguarded scalar shift, so guarded shifts are
        // trajectory-neutral while keeping lanes and strips isolated.
        for (int j = 0; j < strips; ++j) {
            const int off = base + j * span_;
            orElem(edgeE, el, std::uint64_t{1} << (off + span_ - 1));
            orElem(edgeW, el, std::uint64_t{1} << off);
        }
    }
    for (int r = 0; r < e.rows; ++r)
        e.valid[r] = e.interior[r] | e.bnd[r];
    e.guardE = ~edgeE;
    e.guardW = ~edgeW;

    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch,
                         &e.gOut, &e.rqOut, &e.grOut, &e.prOut})
        for (auto &plane : *planes)
            plane.assign(e.rows, W{});
    e.formed.assign(e.rows, W{});
    e.fired.assign(e.rows, W{});
    e.hot.assign(e.rows, W{});
    e.chain.assign(e.rows, W{});
    e.fire.assign(e.rows, W{});
}

MeshDecoder::MeshDecoder(const SurfaceLattice &lattice, ErrorType type,
                         const MeshConfig &config)
    : Decoder(lattice, type), config_(config),
      span_(lattice.gridSize() + 2), width_(simd::activeWidth()),
      native_(simd::nativeEngine(width_))
{
    require(span_ <= 62, "MeshDecoder: lattice too wide for 64-bit rows");
    cycleCap_ = 128 * span_;
    quiescence_ = 3 * span_ + 10;
    buildEngine(scalar_, 1);
    // Only the latched width's batch engine is ever built (lazily, see
    // packedEngine): lane results are indexed by trial and identical
    // across widths, so the choice only moves throughput.
    switch (width_) {
      case simd::Width::Scalar:
        batchLanes_ = laneCount<simd::W64>(span_, kMaxLanes);
        break;
      case simd::Width::V256:
        batchLanes_ = laneCount<simd::W256>(span_, kMaxLanes);
        break;
      case simd::Width::V512:
        batchLanes_ = laneCount<simd::W512>(span_, kMaxLanes);
        break;
    }
}

template <typename W>
MeshDecoder::LaneEngine<W> &
MeshDecoder::packedEngine(LaneEngine<W> &e)
{
    if (e.rows == 0)
        buildEngine(e, kMaxLanes);
    return e;
}

int
MeshDecoder::admit(const Syndrome &syn, Correction &out,
                   MeshDecodeStats &stats) const
{
    require(syn.type() == type(), "MeshDecoder: syndrome type mismatch");
    stats = MeshDecodeStats{};
    out.clear();
    return syn.weight();
}

template <typename F>
void
MeshDecoder::withPackedEngine(F &&f)
{
    switch (width_) {
      case simd::Width::Scalar:
        f(simd::Portable{}, packedEngine(batch64_));
        break;
      case simd::Width::V256:
#ifdef NISQPP_NATIVE_AVX2
        if (native_) {
            f(simd::Avx2{}, packedEngine(batch256_));
            break;
        }
#endif
        f(simd::Portable{}, packedEngine(batch256_));
        break;
      case simd::Width::V512:
#ifdef NISQPP_NATIVE_AVX512
        if (native_) {
            f(simd::Avx512{}, packedEngine(batch512_));
            break;
        }
#endif
        f(simd::Portable{}, packedEngine(batch512_));
        break;
    }
}

void
MeshDecoder::decodeBatch(const Syndrome *const *syndromes,
                         std::size_t count, Correction *out,
                         TrialWorkspace &)
{
    if (count == 0)
        return;
    batchStats_.resize(count);
    BatchSource source{syndromes, out, batchStats_.data(),
                       static_cast<int>(count)};
    if (count == 1) {
        decodeLanes<simd::Portable>(scalar_, source);
        return;
    }
    withPackedEngine([&](auto isa, auto &e) {
        decodeLanes<decltype(isa)>(e, source);
    });
}

void
MeshDecoder::decodeLifetimes(LifetimeFeed &feed)
{
    feedOut_.resize(static_cast<std::size_t>(batchLanes_));
    batchStats_.resize(static_cast<std::size_t>(batchLanes_));
    FeedSource source{feed, feedOut_.data(), batchStats_.data()};
    withPackedEngine([&](auto isa, auto &e) {
        decodeLanes<decltype(isa)>(e, source);
    });
}

const MeshDecodeStats *
MeshDecoder::meshStats(std::size_t lane) const
{
    return lane < batchStats_.size() ? &batchStats_[lane] : nullptr;
}

void
MeshWorkCounters::exportTo(obs::MetricSet &out) const
{
    if (decodes == 0)
        return;
    out.add("decoder.mesh.decodes", decodes);
    out.add("decoder.mesh.cycles", cycles);
    out.add("decoder.mesh.pairings", pairings);
    out.add("decoder.mesh.resets", resets);
    out.add("decoder.mesh.cycles_capped", capped);
    out.add("decoder.mesh.quiesced", quiesced);
}

void
MeshDecoder::exportMetrics(obs::MetricSet &out) const
{
    work_.exportTo(out);
}

void
MeshDecoder::harvestRow(int r, std::uint64_t row, Correction &out) const
{
    // Ascending column — the same order for every layout.
    while (row) {
        const int bit = std::countr_zero(row);
        row &= row - 1;
        const Coord rc{r, bit - 1};
        if (lattice().role(rc) == SiteRole::Data)
            out.dataFlips.push_back(lattice().dataIndex(rc));
    }
}

} // namespace nisqpp
