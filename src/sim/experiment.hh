/**
 * @file
 * Experiment driver shared by the bench binaries: sweeps (code distance,
 * physical error rate) grids for a decoder family, collecting logical
 * error rate curves, decoder cycle statistics and fitted scaling
 * parameters. The sweep types and the sharded executor live in
 * engine/sweep.hh; this header keeps the decoder factories and the
 * fitting helper.
 */

#ifndef NISQPP_SIM_EXPERIMENT_HH
#define NISQPP_SIM_EXPERIMENT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/fit.hh"
#include "core/mesh_config.hh"
#include "engine/sweep.hh"
#include "sim/threshold.hh"

namespace nisqpp {

/** Mesh decoder factory for a given design variant. */
DecoderFactory meshDecoderFactory(const MeshConfig &config);

/** Factories for the software baselines. @{ */
DecoderFactory mwpmDecoderFactory();
DecoderFactory unionFindDecoderFactory();
DecoderFactory greedyDecoderFactory();
/** @} */

/**
 * Tiered decoder factory: a mesh first tier built from @p meshConfig
 * with an exact escalation backend (@p exactFamily is a software
 * family name: "union_find", "mwpm" or "greedy"); decodes whose mesh
 * confidence falls below @p threshold escalate. Deliberately *not*
 * part of decoderFamilies(): the tiered decoder is an operating mode
 * composed from those families (the tiered_decode scenario and the
 * determinism tests build it explicitly), not a fifth baseline, and
 * adding it to the registry would sweep it through every
 * all-families scenario and golden.
 */
DecoderFactory tieredDecoderFactory(const MeshConfig &meshConfig,
                                    const std::string &exactFamily,
                                    double threshold);

/** One named decoder family for cross-decoder comparison scenarios. */
struct DecoderFamily
{
    std::string name;
    DecoderFactory factory;
};

/**
 * The canonical decoder-family list (mesh final design + the software
 * baselines), in presentation order. Every scenario or test that
 * compares "all decoders" iterates this registry so adding a family
 * is a one-place change; the names double as
 * StreamLatencyModel::forFamily keys.
 */
const std::vector<DecoderFamily> &decoderFamilies();

/** Index of @p name in decoderFamilies(); fatal when unknown. */
std::size_t decoderFamilyIndex(const std::string &name);

/**
 * Fit the paper's scaling model to each curve of a sweep below the
 * given threshold (Table V).
 */
std::vector<ScalingFit> fitSweep(const SweepResult &result, double pth,
                                 double max_p);

} // namespace nisqpp

#endif // NISQPP_SIM_EXPERIMENT_HH
