#include "common/logging.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nisqpp {

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

std::size_t
countFromEnv(const char *name, std::size_t max, const char *what,
             std::size_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    // strtoull would silently wrap negatives and accept "0".
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0' || !std::isfinite(v) || v < 1 ||
        v > static_cast<double>(max) || v != std::floor(v)) {
        warn(std::string(name) + "='" + env +
             "' is not an integer in [1, " + std::to_string(max) +
             "]; keeping " + what + " = " + std::to_string(fallback));
        return fallback;
    }
    return static_cast<std::size_t>(v);
}

} // namespace nisqpp
