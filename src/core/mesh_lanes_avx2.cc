/**
 * @file
 * The native AVX2 build of the mesh lane engine's 256-bit word. CMake
 * compiles this unit with -mavx2, and only for x86-64 targets whose
 * compiler accepts the flag; MeshDecoder runs it when the CPU supports
 * AVX2 (simd::nativeEngine).
 */

#include "core/mesh_lanes.hh"

namespace nisqpp {

template void MeshDecoder::decodeLanes<simd::Avx2>(
    LaneEngine<simd::W256> &, BatchSource &);
template void MeshDecoder::decodeLanes<simd::Avx2>(
    LaneEngine<simd::W256> &, FeedSource &);

} // namespace nisqpp
