/**
 * @file
 * Deterministic, fast pseudo-random number generation for Monte Carlo
 * simulation. Implements xoshiro256** seeded via SplitMix64 so every
 * experiment in the repository is exactly reproducible from a 64-bit seed.
 */

#ifndef NISQPP_COMMON_RNG_HH
#define NISQPP_COMMON_RNG_HH

#include <cstdint>

namespace nisqpp {

/**
 * xoshiro256** generator (Blackman & Vigna). Deterministic across
 * platforms, much faster than std::mt19937_64, and of ample quality for
 * error-injection sampling.
 *
 * next() and coin() are defined inline here: the noise channels call
 * them once per qubit per round, and an out-of-line call there spills
 * the four state words on every draw.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; state expanded with SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) without modulo bias (Lemire). */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Integer threshold such that coin(threshold(p)) makes exactly
     * the same decision as `uniform() < p` from the same draw, with
     * no int-to-double conversion on the hot path. Only meaningful
     * for p in (0, 1); callers must special-case p <= 0 / p >= 1
     * themselves, because bernoulli() consumes no draw there.
     */
    static std::uint64_t threshold(double p);

    /** Bernoulli trial against a precomputed threshold (one draw). */
    bool
    coin(std::uint64_t thresh)
    {
        return (next() >> 11) < thresh;
    }

    /**
     * Derive an independent child generator; used to give each Monte
     * Carlo worker / lattice size its own stream from one master seed.
     */
    Rng split();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace nisqpp

#endif // NISQPP_COMMON_RNG_HH
