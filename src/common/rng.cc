#include "common/rng.hh"

#include <cmath>

namespace nisqpp {

namespace {

/** SplitMix64 step used for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed; avoid the all-zero state (splitmix can't produce
    // four zero outputs from any seed, but stay defensive).
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::threshold(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    // uniform() < p  <=>  (next() >> 11) < ceil(p * 2^53): the draw
    // is k * 2^-53 for an integer k, and scaling by a power of two is
    // exact, so the ceil is the exact integer decision boundary.
    return static_cast<std::uint64_t>(std::ceil(p * 0x1p53));
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace nisqpp
