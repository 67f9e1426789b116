#include "support/one_lifetime.hh"

#include <utility>

namespace nisqpp {

namespace {

/** Hands out one lifetime and keeps its result. */
struct OneLifetime final : LifetimeSource
{
    LifetimeLane lane;
    bool claimed = false;
    MonteCarloResult result;

    bool
    claim(LifetimeLane &out) override
    {
        if (claimed)
            return false;
        claimed = true;
        out = lane;
        return true;
    }

    void
    finish(std::size_t, MonteCarloResult done) override
    {
        result = std::move(done);
    }
};

} // namespace

MonteCarloResult
runOneLifetime(LifetimeSimulator &sim, const NoiseModel &model,
               std::uint64_t seed, const StopRule &rule)
{
    OneLifetime source;
    source.lane = {&model, seed, rule, 0};
    sim.runLifetimes(source);
    return std::move(source.result);
}

} // namespace nisqpp
