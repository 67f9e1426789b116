/**
 * @file
 * One lifetime through LifetimeSimulator::runLifetimes: the tests that
 * drive the simulator directly pick their own seed and stop rule,
 * early stop included, where the engine would split the budget into
 * shards with seeds of its own.
 */

#ifndef NISQPP_TESTS_SUPPORT_ONE_LIFETIME_HH
#define NISQPP_TESTS_SUPPORT_ONE_LIFETIME_HH

#include <cstdint>

#include "noise/noise_model.hh"
#include "sim/monte_carlo.hh"

namespace nisqpp {

/**
 * Run one lifetime of @p model on @p sim, from an RNG stream seeded
 * with @p seed, until @p rule stops it; return its finalized result.
 */
MonteCarloResult runOneLifetime(LifetimeSimulator &sim,
                                const NoiseModel &model,
                                std::uint64_t seed, const StopRule &rule);

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_ONE_LIFETIME_HH
