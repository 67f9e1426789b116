#include "sim/experiment.hh"

#include "common/logging.hh"
#include "core/mesh_decoder.hh"
#include "decoders/greedy_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/tiered_decoder.hh"
#include "decoders/union_find_decoder.hh"

namespace nisqpp {

DecoderFactory
meshDecoderFactory(const MeshConfig &config)
{
    return [config](const SurfaceLattice &lat, ErrorType type) {
        return std::make_unique<MeshDecoder>(lat, type, config);
    };
}

DecoderFactory
mwpmDecoderFactory()
{
    return [](const SurfaceLattice &lat, ErrorType type) {
        return std::make_unique<MwpmDecoder>(lat, type);
    };
}

DecoderFactory
unionFindDecoderFactory()
{
    return [](const SurfaceLattice &lat, ErrorType type) {
        return std::make_unique<UnionFindDecoder>(lat, type);
    };
}

DecoderFactory
greedyDecoderFactory()
{
    return [](const SurfaceLattice &lat, ErrorType type) {
        return std::make_unique<GreedyDecoder>(lat, type);
    };
}

DecoderFactory
tieredDecoderFactory(const MeshConfig &meshConfig,
                     const std::string &exactFamily, double threshold)
{
    DecoderFactory exact;
    if (exactFamily == "union_find")
        exact = unionFindDecoderFactory();
    else if (exactFamily == "mwpm")
        exact = mwpmDecoderFactory();
    else if (exactFamily == "greedy")
        exact = greedyDecoderFactory();
    else
        fatal("tieredDecoderFactory: unknown escalation family '" +
              exactFamily + "' (expected union_find, mwpm or greedy)");
    return [meshConfig, exact, threshold](const SurfaceLattice &lat,
                                          ErrorType type) {
        return std::make_unique<TieredDecoder>(
            lat, type,
            std::make_unique<MeshDecoder>(lat, type, meshConfig),
            exact(lat, type), threshold);
    };
}

const std::vector<DecoderFamily> &
decoderFamilies()
{
    static const std::vector<DecoderFamily> families{
        {"sfq_mesh", meshDecoderFactory(MeshConfig::finalDesign())},
        {"union_find", unionFindDecoderFactory()},
        {"mwpm", mwpmDecoderFactory()},
        {"greedy", greedyDecoderFactory()},
    };
    return families;
}

std::size_t
decoderFamilyIndex(const std::string &name)
{
    const auto &families = decoderFamilies();
    for (std::size_t i = 0; i < families.size(); ++i)
        if (families[i].name == name)
            return i;
    fatal("unknown decoder family '" + name + "'");
}

std::vector<ScalingFit>
fitSweep(const SweepResult &result, double pth, double max_p)
{
    std::vector<ScalingFit> fits;
    for (const auto &curve : result.curves) {
        std::vector<double> ps, pls;
        for (std::size_t i = 0; i < curve.p.size(); ++i) {
            if (curve.p[i] <= max_p && curve.pl[i] > 0) {
                ps.push_back(curve.p[i]);
                pls.push_back(curve.pl[i]);
            }
        }
        fits.push_back(fitScalingModel(ps, pls, pth, curve.distance));
    }
    return fits;
}

} // namespace nisqpp
