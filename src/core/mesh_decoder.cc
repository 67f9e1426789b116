#include "core/mesh_decoder.hh"

#include <algorithm>
#include <bit>
#include <type_traits>

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
    // [j*h, (j+1)*h) at bit offset j*span, and its strip rows run
    // across the word's elements: strip row s sits in word s / E,
    // element s % E. h is rounded up to whole words. Packed lanes keep
    // one mesh row per word (a single strip, one element).
    e.stacked = e.lanes == 1;
    const int elems = e.stacked ? elementsOf<W>() : 1;
    const int fill = e.stacked ? std::min(span_, 64 / span_) : 1;
    const int height =
        ((span_ + fill - 1) / fill + elems - 1) / elems * elems;
    const int strips = (span_ + height - 1) / height;
    e.rows = height / elems;
    for (int r = 0; r < span_; ++r) {
        const int s = r % height;
        e.slot[r] = {s / elems, s % elems, r / height * span_};
    }
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
    for (int b = 0; b < 64; ++b)
        e.subOf[b] = static_cast<std::uint8_t>(b / span_);

    // Every plane in one allocation: three masks, nine direction-
    // resolved signal planes and five per-module ones, then the
    // sub-lane masks and the reset ring.
    constexpr int kPlaneCount = 3 + 9 * kNumDirs + 5;
    e.block.assign(static_cast<std::size_t>(kPlaneCount) * e.rows +
                       per_elem + kMeshResetCycles,
                   W{});
    W *next = e.block.data();
    const auto take = [&](int words) {
        W *plane = next;
        next += words;
        return plane;
    };
    for (W **plane : {&e.interior, &e.bnd, &e.valid, &e.formed,
                      &e.fired, &e.hot, &e.chain, &e.fire})
        *plane = take(e.rows);
    for (auto *planes : {&e.g, &e.rq, &e.gr, &e.pr, &e.grantLatch,
                         &e.gOut, &e.rqOut, &e.grOut, &e.prOut})
        for (W *&plane : *planes)
            plane = take(e.rows);
    e.subLane = take(per_elem);
    e.resetRing = take(kMeshResetCycles);
    for (int l = 0; l < e.lanes; ++l)
        orElem(e.subLane[l % per_elem], e.laneElem[l], e.laneSub[l]);

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
    W edgeE{}, edgeW{};
    for (int l = 0; l < e.lanes; ++l) {
        const int el = e.laneElem[l];
        const int base = e.laneBase[l];
        for (int r = 0; r < span_; ++r) {
            const RowSlot at = e.slot[r];
            orElem(e.interior[at.word], el + at.elem,
                   interior[r] << (base + at.shift));
            orElem(e.bnd[at.word], el + at.elem,
                   bnd[r] << (base + at.shift));
        }
        // Shift guards: drop each strip's edge column before an
        // east/west shift — exactly the bits the valid mask would kill
        // after an unguarded scalar shift, so guarded shifts are
        // trajectory-neutral while keeping lanes and strips isolated.
        for (int j = 0; j < strips; ++j) {
            const int off = base + j * span_;
            for (int x = 0; x < elems; ++x) {
                orElem(edgeE, el + x,
                       std::uint64_t{1} << (off + span_ - 1));
                orElem(edgeW, el + x, std::uint64_t{1} << off);
            }
        }
    }
    for (int r = 0; r < e.rows; ++r)
        e.valid[r] = e.interior[r] | e.bnd[r];
    e.guardE = ~edgeE;
    e.guardW = ~edgeW;
}

MeshDecoder::MeshDecoder(const SurfaceLattice &lattice, ErrorType type,
                         const MeshConfig &config)
    : Decoder(lattice, type), config_(config),
      span_(lattice.gridSize() + 2),
      width_(simd::activeWidth()),
      native_(simd::nativeEngine(width_))
{
    require(span_ <= 62, "MeshDecoder: lattice too wide for 64-bit rows");
    cycleCap_ = 128 * span_;
    quiescence_ = 3 * span_ + 10;
    // Only the latched width's engines are ever built, the packed one
    // lazily (see engine()): lane results are indexed by trial and
    // identical across widths, so the choice only moves throughput.
    withEngine(one_, [](auto, auto &) {});
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
MeshDecoder::engine(AnyEngine &slot)
{
    if (auto *e = std::get_if<LaneEngine<W>>(&slot))
        return *e;
    auto &e = slot.emplace<LaneEngine<W>>();
    buildEngine(e, &slot == &one_ ? 1 : kMaxLanes);
    return e;
}

int
MeshDecoder::stripWords() const
{
    return std::visit(
        [](const auto &e) {
            if constexpr (std::is_same_v<std::decay_t<decltype(e)>,
                                         std::monostate>)
                return 0;
            else
                return e.rows;
        },
        one_);
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
MeshDecoder::withEngine(AnyEngine &slot, F &&f)
{
    switch (width_) {
      case simd::Width::Scalar:
        f(simd::Portable{}, engine<simd::W64>(slot));
        break;
      case simd::Width::V256:
#ifdef NISQPP_NATIVE_AVX2
        if (native_) {
            f(simd::Avx2{}, engine<simd::W256>(slot));
            break;
        }
#endif
        f(simd::Portable{}, engine<simd::W256>(slot));
        break;
      case simd::Width::V512:
#ifdef NISQPP_NATIVE_AVX512
        if (native_) {
            f(simd::Avx512{}, engine<simd::W512>(slot));
            break;
        }
#endif
        f(simd::Portable{}, engine<simd::W512>(slot));
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
    withEngine(count == 1 ? one_ : packed_, [&](auto isa, auto &e) {
        decodeLanes<decltype(isa)>(e, source);
    });
}

void
MeshDecoder::decodeLifetimes(LifetimeFeed &feed)
{
    feedOut_.resize(static_cast<std::size_t>(batchLanes_));
    batchStats_.resize(static_cast<std::size_t>(batchLanes_));
    FeedSource source{feed, feedOut_.data(), batchStats_.data()};
    withEngine(packed_, [&](auto isa, auto &e) {
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
        const int q = lattice().dataIndexOrNone({r, bit - 1});
        if (q >= 0)
            out.dataFlips.push_back(q);
    }
}

} // namespace nisqpp
