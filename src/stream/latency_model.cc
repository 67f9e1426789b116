#include "stream/latency_model.hh"

#include "backlog/distance_model.hh"
#include "common/logging.hh"
#include "core/mesh_config.hh"
#include "core/mesh_stats.hh"

namespace nisqpp {

double
StreamLatencyModel::decodeNs(const MeshDecodeStats *stats) const
{
    if (meshCycles) {
        require(stats != nullptr,
                "StreamLatencyModel: meshCycles set but the decoder "
                "reports no mesh telemetry");
        return stats->cycles * kMeshCyclePeriodPs * 1e-3;
    }
    return baseNs;
}

StreamLatencyModel
StreamLatencyModel::mesh()
{
    StreamLatencyModel m;
    m.meshCycles = true;
    return m;
}

StreamLatencyModel
StreamLatencyModel::constant(double ns)
{
    StreamLatencyModel m;
    m.baseNs = ns;
    return m;
}

StreamLatencyModel
StreamLatencyModel::forFamily(const std::string &family, int distance)
{
    if (family == "sfq_mesh")
        return mesh();
    if (family == "mwpm")
        return constant(DecoderProfile::mwpm().decodeNs(distance));
    if (family == "union_find")
        return constant(DecoderProfile::unionFind().decodeNs(distance));
    if (family == "greedy")
        return constant(600.0);
    fatal("StreamLatencyModel: unknown decoder family '" + family +
          "' (expected sfq_mesh, mwpm, union_find or greedy)");
}

StreamLatencyModel
StreamLatencyModel::tiered(const std::string &exactFamily, int distance)
{
    StreamLatencyModel m = mesh();
    m.escalateNs = forFamily(exactFamily, distance).baseNs;
    return m;
}

} // namespace nisqpp
