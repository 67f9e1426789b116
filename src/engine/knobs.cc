#include "engine/knobs.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "engine/sweep.hh"
#include "sim/monte_carlo.hh"

namespace nisqpp::knobs {

namespace {

/**
 * Largest count a knob without a tighter bound accepts: every integer
 * up to it is exact as a double, so a parsed count never rounds.
 */
constexpr double kMaxCount = 1e15;

/**
 * @p text as a number in [lo, hi] (lo excluded when @p openLo), whole
 * when @p integral. NotANumber unless strtod consumes all of a text
 * that does not start with a space.
 */
Parse
ranged(const char *text, double lo, double hi, bool openLo,
       bool integral, double &out)
{
    if (!*text || std::isspace(static_cast<unsigned char>(*text)))
        return Parse::NotANumber;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return Parse::NotANumber;
    // NaN fails every comparison, infinities the upper bound.
    if (!(openLo ? v > lo : v >= lo) || !(v <= hi) ||
        (integral && v != std::floor(v)))
        return Parse::OutOfRange;
    out = v;
    return Parse::Ok;
}

/** An integer in [lo, hi] into any integral slot. */
template <class I>
Parse
whole(const char *text, double lo, double hi, I &out)
{
    double v = 0;
    const Parse verdict = ranged(text, lo, hi, false, true, v);
    if (verdict == Parse::Ok)
        out = static_cast<I>(v);
    return verdict;
}

Parse
positive(const char *text, double hi, double &out)
{
    return ranged(text, 0, hi, true, false, out);
}

const std::string kFraction = "a fraction in [0, 1]";

using faults::FaultSpec;

/** Parse a fault rate into its FaultSpec slot. */
template <double FaultSpec::*Rate>
Parse
rate(const char *text, FaultSpec &spec)
{
    return fraction(text, spec.*Rate);
}

/** One NISQPP_STREAM_FAULTS key; knob.flag is its --fault-* twin. */
struct FaultKey
{
    const char *key;
    Knob<FaultSpec> knob;
};

const FaultKey kFaultKeys[] = {
    {"drop", {"--fault-drop", nullptr, kFraction,
              rate<&FaultSpec::dropRate>}},
    {"corrupt", {"--fault-corrupt", nullptr, kFraction,
                 rate<&FaultSpec::corruptRate>}},
    {"dup", {"--fault-dup", nullptr, kFraction,
             rate<&FaultSpec::duplicateRate>}},
    {"delay", {"--fault-delay", nullptr, kFraction,
               rate<&FaultSpec::delayRate>}},
    {"stall", {"--fault-stall", nullptr, kFraction,
               rate<&FaultSpec::stallRate>}},
    {"fail", {"--fault-fail", nullptr, kFraction,
              rate<&FaultSpec::decodeFailRate>}},
    {"seed", {"--fault-seed", nullptr, "an unsigned 64-bit integer",
              [](const char *t, FaultSpec &s) { return seed(t, s.seed); }}},
    {"delay-cycles", {nullptr, nullptr, "an integer in [1, 1024]",
                      [](const char *t, FaultSpec &s) {
                          return whole(t, 1, 1024, s.delayCycles);
                      }}},
    {"stall-factor", {nullptr, nullptr, "a number in [1, 1e6]",
                      [](const char *t, FaultSpec &s) {
                          return ranged(t, 1, 1e6, false, false,
                                        s.stallFactor);
                      }}},
};

} // namespace

Parse
count(const char *text, std::size_t max, std::size_t &out)
{
    return whole(text, 1, static_cast<double>(max), out);
}

Parse
fraction(const char *text, double &out)
{
    return ranged(text, 0, 1, false, false, out);
}

Parse
multiplier(const char *text, double &out)
{
    return positive(text, kMaxTrialsMultiplier, out);
}

Parse
seed(const char *text, std::uint64_t &out)
{
    // strtoull skips spaces and wraps negatives; refuse both so a
    // typo'd seed never aliases another.
    if (!*text || std::isspace(static_cast<unsigned char>(*text)) ||
        *text == '-')
        return Parse::OutOfRange;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE)
        return Parse::OutOfRange;
    out = v;
    return Parse::Ok;
}

Parse
width(const char *text, simd::Width &out)
{
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        if (std::strcmp(text, simd::widthName(w)) == 0) {
            out = w;
            return Parse::Ok;
        }
    }
    return Parse::OutOfRange;
}

Parse
faultList(const char *text, faults::FaultSpec &out)
{
    const std::string list(text);
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string token = list.substr(start, comma - start);
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos ||
            token.find('=', eq + 1) != std::string::npos)
            return Parse::OutOfRange;
        const std::string key = token.substr(0, eq);
        const FaultKey *entry = nullptr;
        for (const FaultKey &k : kFaultKeys)
            if (key == k.key)
                entry = &k;
        if (!entry || entry->knob.parse(token.c_str() + eq + 1, out) !=
                          Parse::Ok)
            return Parse::OutOfRange;
        start = comma + 1;
    }
    return Parse::Ok;
}

Parse
writeFault(const char *text, ckpt::WriteFault &out)
{
    using Mode = ckpt::WriteFault::Mode;
    for (const auto &[prefix, mode] :
         {std::pair{"kill-after=", Mode::Kill},
          std::pair{"tear-after=", Mode::Tear}}) {
        const std::size_t n = std::strlen(prefix);
        if (std::strncmp(text, prefix, n) == 0) {
            ckpt::WriteFault fault{mode, 0};
            if (whole(text + n, 1, kMaxCount, fault.afterWrites) !=
                Parse::Ok)
                return Parse::OutOfRange;
            out = fault;
            return Parse::Ok;
        }
    }
    return Parse::OutOfRange;
}

const Knob<int> threads{
    "--threads", nullptr, "an integer in [0, 4096]",
    [](const char *t, int &out) { return whole(t, 0, 4096, out); }};

const Knob<std::size_t> shardTrials{
    "--shard-trials", nullptr, "an integer in [1, 1e15]",
    [](const char *t, std::size_t &out) {
        return whole(t, 1, kMaxCount, out);
    }};

const Knob<double> trialsScale{"--trials-scale", "NISQPP_TRIALS",
                               "a positive number <= 1e6", multiplier};

const Knob<std::uint64_t> runSeed{"--seed", nullptr,
                                  "an unsigned 64-bit integer", seed};

const Knob<std::size_t> batch{
    "--batch", "NISQPP_BATCH",
    "an integer in [1, " + std::to_string(kMaxBatchLanes) + "]",
    [](const char *t, std::size_t &out) {
        return count(t, kMaxBatchLanes, out);
    }};

const Knob<simd::Width> simdWidth{"--simd", "NISQPP_SIMD",
                                  "scalar, v256 or v512", width};

const Knob<double> escalateThreshold{"--escalate-threshold", nullptr,
                                     kFraction, fraction};

const Knob<double> deadlineNs{
    "--deadline-ns", nullptr, "a positive number <= 1e9",
    [](const char *t, double &out) { return positive(t, 1e9, out); }};

const Knob<std::size_t> checkpointInterval{
    "--checkpoint-interval", "NISQPP_CKPT_INTERVAL",
    "an integer in [1, " + std::to_string(ckpt::kMaxCheckpointInterval) +
        "]",
    [](const char *t, std::size_t &out) {
        return count(t, ckpt::kMaxCheckpointInterval, out);
    }};

const Knob<faults::FaultSpec> streamFaults{
    nullptr, "NISQPP_STREAM_FAULTS",
    "a fault list key=value,... (keys: nisqpp_run --help)",
    faultList};

const Knob<ckpt::WriteFault> faultInject{
    nullptr, "NISQPP_FAULT_INJECT",
    "kill-after=N or tear-after=N with N an integer in [1, 1e15]",
    writeFault};

const Knob<faults::FaultSpec> *
faultFlag(const std::string &arg)
{
    for (const FaultKey &k : kFaultKeys)
        if (k.knob.flag && arg == k.knob.flag)
            return &k.knob;
    return nullptr;
}

const char *
envText(const char *name)
{
    const char *text = std::getenv(name);
    return text && *text ? text : nullptr;
}

} // namespace nisqpp::knobs
