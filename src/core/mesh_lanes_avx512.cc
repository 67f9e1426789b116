/**
 * @file
 * The native AVX-512 build of the mesh lane engine's 512-bit word.
 * CMake compiles this unit with -mavx512f, and only for x86-64 targets
 * whose compiler accepts the flag; MeshDecoder runs it when the CPU
 * supports AVX-512F (simd::nativeEngine).
 */

#include "core/mesh_lanes.hh"

namespace nisqpp {

template void MeshDecoder::decodeLanes<simd::Avx512>(
    LaneEngine<simd::W512> &, BatchSource &);
template void MeshDecoder::decodeLanes<simd::Avx512>(
    LaneEngine<simd::W512> &, FeedSource &);

} // namespace nisqpp
