/**
 * @file
 * Configuration of the SFQ mesh decoder's incremental design mechanisms
 * (paper Section V-C and Fig. 10 top row): the baseline grow/pair
 * protocol, the global reset mechanism, the boundary modules, and the
 * request-grant equidistant arbitration of the final design.
 */

#ifndef NISQPP_CORE_MESH_CONFIG_HH
#define NISQPP_CORE_MESH_CONFIG_HH

#include <string>

namespace nisqpp {

/**
 * Cycles the global reset blocks grow/request/grant inputs; the
 * paper's synthesized circuit depth is 5 (Section VI-B).
 */
inline constexpr int kMeshResetCycles = 5;

/**
 * Mesh clock period in picoseconds: the paper's synthesized full
 * circuit latency (Table III). Every mesh in the design runs at it.
 */
inline constexpr double kMeshCyclePeriodPs = 162.72;

/** Feature flags of one mesh decoder instance. */
struct MeshConfig
{
    /** Global reset after each completed pairing (Fig. 8(a) fix). */
    bool resetMechanism = true;

    /** Boundary modules ringing the lattice (Fig. 8(b) fix). */
    bool boundaryMechanism = true;

    /** Request-grant arbitration for equidistant sets (Fig. 8(c) fix). */
    bool equidistantMechanism = true;

    /** The paper's incremental designs. @{ */
    static MeshConfig baseline();
    static MeshConfig withReset();
    static MeshConfig withResetAndBoundary();
    static MeshConfig finalDesign();
    /** @} */

    /** Short label used in experiment tables. */
    std::string label() const;
};

inline MeshConfig
MeshConfig::baseline()
{
    MeshConfig c;
    c.resetMechanism = false;
    c.boundaryMechanism = false;
    c.equidistantMechanism = false;
    return c;
}

inline MeshConfig
MeshConfig::withReset()
{
    MeshConfig c = baseline();
    c.resetMechanism = true;
    return c;
}

inline MeshConfig
MeshConfig::withResetAndBoundary()
{
    MeshConfig c = withReset();
    c.boundaryMechanism = true;
    return c;
}

inline MeshConfig
MeshConfig::finalDesign()
{
    return MeshConfig{};
}

inline std::string
MeshConfig::label() const
{
    if (!resetMechanism && !boundaryMechanism && !equidistantMechanism)
        return "baseline";
    if (!boundaryMechanism && !equidistantMechanism)
        return "reset";
    if (!equidistantMechanism)
        return "reset+boundary";
    return "final";
}

} // namespace nisqpp

#endif // NISQPP_CORE_MESH_CONFIG_HH
