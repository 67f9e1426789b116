/**
 * @file
 * Internal declarations of the scenario bodies (one per reproduced
 * figure/table); the registry in scenario.cc wires them to names.
 */

#ifndef NISQPP_ENGINE_SCENARIOS_HH
#define NISQPP_ENGINE_SCENARIOS_HH

#include <vector>

#include "engine/sweep.hh"
#include "stream/stream_sim.hh"

namespace nisqpp {

class ScenarioContext;

namespace scenarios {

/** Analytic reproductions (no Monte Carlo). @{ */
void fig01Sqv(ScenarioContext &ctx);
void fig11Distance(ScenarioContext &ctx);
void table1Circuits(ScenarioContext &ctx);
void table2Cells(ScenarioContext &ctx);
void table3Synthesis(ScenarioContext &ctx);
/** @} */

/** Monte Carlo sweeps through the parallel engine. @{ */
void fig10Final(ScenarioContext &ctx);
void fig10Variants(ScenarioContext &ctx);
void fig10Cycles(ScenarioContext &ctx);
void table4Latency(ScenarioContext &ctx);
void table5Fit(ScenarioContext &ctx);
void microDecoders(ScenarioContext &ctx);
void microHotpath(ScenarioContext &ctx);
/** @} */

/** Streaming decode pipeline (scenarios_stream.cc). @{ */
void fig05Backlog(ScenarioContext &ctx);
void fig06Runtime(ScenarioContext &ctx);
void streamingBacklog(ScenarioContext &ctx);
/** @} */

/** One streaming cell: the decoder to build and its run's config. */
struct StreamJob
{
    DecoderFactory factory;
    StreamConfig config; ///< with config.lattice set
};

/**
 * Run every job through the engine's job pool, each on a fresh decoder
 * from its factory (scenarios_stream.cc). Results land in job order at
 * any thread count, and each run's deterministic stream.* / decoder.*
 * counters fold into the scenario sink in that order, so the fold is
 * thread-count-invariant. Serves every streaming scenario.
 */
std::vector<StreamingResult> runStreamJobs(ScenarioContext &ctx,
                                           const std::vector<StreamJob> &jobs);

/** Noise subsystem: faulty measurement + channel zoo
 * (scenarios_noise.cc). @{ */
void fig10Measurement(ScenarioContext &ctx);
void noiseZoo(ScenarioContext &ctx);
/** @} */

/** Tiered mesh-first decoding frontier (scenarios_tiered.cc). */
void tieredDecode(ScenarioContext &ctx);

/** Fault-injected streaming degradation (scenarios_faults.cc). */
void faultSweep(ScenarioContext &ctx);

} // namespace scenarios
} // namespace nisqpp

#endif // NISQPP_ENGINE_SCENARIOS_HH
