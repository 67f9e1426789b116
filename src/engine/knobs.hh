/**
 * @file
 * Every run knob, parsed one way. A knob has one strict value parser;
 * its CLI flag and its environment twin both go through it and differ
 * only in what a bad value does: the flag fails hard (fatal), the env
 * twin warns once and keeps the value it would have replaced.
 *
 * Only parseArgs (engine/scenario.cc) reads the environment, through
 * fromEnv() below; runScenario, the engine and every layer under it
 * see only the parsed RunOptions, so an in-process run is a function
 * of its options alone.
 */

#ifndef NISQPP_ENGINE_KNOBS_HH
#define NISQPP_ENGINE_KNOBS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "faults/fault_plan.hh"

namespace nisqpp::knobs {

/** Outcome of a strict parse. */
enum class Parse
{
    Ok,         ///< parsed and in range
    NotANumber, ///< empty, leading space, or not wholly a number
    OutOfRange, ///< well-formed, but not a value the knob accepts
};

/** @name Typed parsers: fill @p out only on Parse::Ok @{ */

/**
 * An integer in [1, @p max]. Parsed as a number first, so "1e2" is
 * 100; fractions, infinities and NaN are out of range.
 */
Parse count(const char *text, std::size_t max, std::size_t &out);

/** A fraction in [0, 1]. */
Parse fraction(const char *text, double &out);

/** A trial-budget multiplier in (0, kMaxTrialsMultiplier]. */
Parse multiplier(const char *text, double &out);

/**
 * An unsigned 64-bit integer in decimal, 0x-hex or 0-octal; a sign,
 * a leading space or overflow is rejected.
 */
Parse seed(const char *text, std::uint64_t &out);

/** A lane-word width: "scalar", "v256" or "v512". */
Parse width(const char *text, simd::Width &out);

/**
 * A comma-separated "key=value" list over the fault keys (drop,
 * corrupt, dup, delay, stall, fail, seed, delay-cycles, stall-factor);
 * updates only the keys it names. Any bad token makes the whole list
 * OutOfRange, and the caller discards @p out.
 */
Parse faultList(const char *text, faults::FaultSpec &out);

/** A checkpoint write fault: "kill-after=N" or "tear-after=N". */
Parse writeFault(const char *text, ckpt::WriteFault &out);

/** @} */

/** One knob: its flag, its env twin and the parser both share. */
template <class T>
struct Knob
{
    const char *flag;    ///< CLI spelling, or nullptr (env only)
    const char *env;     ///< env twin, or nullptr (flag only)
    std::string expects; ///< what a valid value is, for messages
    Parse (*parse)(const char *text, T &out);
};

/** @name The knobs @{ */
extern const Knob<int> threads;
extern const Knob<std::size_t> shardTrials;
extern const Knob<double> trialsScale;             ///< NISQPP_TRIALS
extern const Knob<std::uint64_t> runSeed;          ///< --seed
extern const Knob<std::size_t> batch;              ///< NISQPP_BATCH
extern const Knob<simd::Width> simdWidth;          ///< NISQPP_SIMD
extern const Knob<double> escalateThreshold;
extern const Knob<double> deadlineNs;
extern const Knob<std::size_t> checkpointInterval; ///< NISQPP_CKPT_INTERVAL
extern const Knob<faults::FaultSpec> streamFaults; ///< NISQPP_STREAM_FAULTS
extern const Knob<ckpt::WriteFault> faultInject;   ///< NISQPP_FAULT_INJECT
/** @} */

/**
 * The knob behind flag @p arg when it is one of the `--fault-<key>`
 * flags, else nullptr. It is the same table entry, and so the same
 * parser, as the key's NISQPP_STREAM_FAULTS directive.
 */
const Knob<faults::FaultSpec> *faultFlag(const std::string &arg);

/** The value of env variable @p name, or nullptr when unset or empty. */
const char *envText(const char *name);

/**
 * Warn-and-keep: parse @p knob's env twin into @p slot. Returns true
 * when the variable was set and valid; a bad value warns once, names
 * the variable and what it expects, and leaves @p slot unchanged.
 */
template <class T>
bool
fromEnv(const Knob<T> &knob, T &slot)
{
    const char *text = envText(knob.env);
    if (!text)
        return false;
    T value = slot;
    if (knob.parse(text, value) != Parse::Ok) {
        warn(std::string(knob.env) + "='" + text + "' is not " +
             knob.expects + "; ignored");
        return false;
    }
    slot = value;
    return true;
}

/**
 * Fatal: parse flag value @p text of @p knob into @p slot, or exit
 * with "<flag>: expected <what>, got '<text>'".
 */
template <class T>
void
fromFlag(const Knob<T> &knob, const char *text, T &slot)
{
    T value = slot;
    const Parse verdict = knob.parse(text, value);
    if (verdict != Parse::Ok)
        fatal(std::string(knob.flag) + ": expected " +
              (verdict == Parse::NotANumber ? std::string("a number")
                                            : knob.expects) +
              ", got '" + text + "'");
    slot = value;
}

} // namespace nisqpp::knobs

#endif // NISQPP_ENGINE_KNOBS_HH
