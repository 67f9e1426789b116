/**
 * @file One contract for every environment twin: each knob's env
 * variable goes through the same strict parser as its flag, accepts
 * exactly what the flag accepts, and on anything else warns and keeps
 * its slot. The table holds the verdicts the per-knob suites
 * (BatchEnv, CkptIntervalEnv, Simd, StreamFaultEnv, WriteFaultEnv) do
 * not already pin, and the loops the inputs every numeric knob
 * refuses.
 */

#include <gtest/gtest.h>

#include <string>

#include "engine/knobs.hh"
#include "support/scoped_env.hh"

namespace nisqpp {
namespace {

/** Whether @p knob's env twin, as currently set, is taken. */
template <class T>
bool
taken(const knobs::Knob<T> &knob)
{
    T slot{};
    return knobs::fromEnv(knob, slot);
}

/** Whether env variable @p var set to @p text is taken. */
bool
accepts(const std::string &var, const char *text)
{
    ScopedEnv env(var.c_str(), text);
    if (var == knobs::trialsScale.env)
        return taken(knobs::trialsScale);
    if (var == knobs::batch.env)
        return taken(knobs::batch);
    if (var == knobs::checkpointInterval.env)
        return taken(knobs::checkpointInterval);
    if (var == knobs::simdWidth.env)
        return taken(knobs::simdWidth);
    if (var == knobs::streamFaults.env)
        return taken(knobs::streamFaults);
    if (var == knobs::faultInject.env)
        return taken(knobs::faultInject);
    ADD_FAILURE() << "no knob reads " << var;
    return false;
}

struct Row
{
    const char *var;
    const char *text;
    bool accepted;
};

const Row kRows[] = {
    // The trial multiplier: positive, at most 1e6.
    {"NISQPP_TRIALS", "2", true},
    {"NISQPP_TRIALS", "0.05", true},
    {"NISQPP_TRIALS", "3.5", true},
    {"NISQPP_TRIALS", "1e6", true},
    {"NISQPP_TRIALS", "1e30", false},
    {"NISQPP_TRIALS", "abc", false},
    {"NISQPP_TRIALS", "1.5x", false},
    // Fault lists take every seed --fault-seed takes, and counts as
    // every count knob does.
    {"NISQPP_STREAM_FAULTS", "seed=0", true},
    {"NISQPP_STREAM_FAULTS", "seed=0x10", true},
    {"NISQPP_STREAM_FAULTS", "seed=18446744073709551615", true},
    {"NISQPP_STREAM_FAULTS", "seed=18446744073709551616", false},
    {"NISQPP_STREAM_FAULTS", "delay-cycles=1e2", true},
    {"NISQPP_STREAM_FAULTS", "drop= 0.1", false},
    {"NISQPP_FAULT_INJECT", "tear-after=1e2", true},
};

/** Refused by every numeric knob, whatever its range. */
const char *const kNeverANumber[] = {" 4", "12x", "0", "-3", "inf",
                                     "nan"};

TEST(Knobs, EveryEnvTwinKeepsItsVerdict)
{
    for (const Row &row : kRows)
        EXPECT_EQ(accepts(row.var, row.text), row.accepted)
            << row.var << "='" << row.text << "'";
    for (const char *var :
         {"NISQPP_BATCH", "NISQPP_CKPT_INTERVAL", "NISQPP_TRIALS"})
        for (const char *text : kNeverANumber)
            EXPECT_FALSE(accepts(var, text)) << var << "='" << text << "'";
    for (const char *var : {"NISQPP_BATCH", "NISQPP_CKPT_INTERVAL"})
        EXPECT_FALSE(accepts(var, "3.5")) << var;
    // Unset and empty read as absent for every twin.
    for (const char *var :
         {"NISQPP_BATCH", "NISQPP_CKPT_INTERVAL", "NISQPP_TRIALS",
          "NISQPP_SIMD", "NISQPP_STREAM_FAULTS", "NISQPP_FAULT_INJECT"}) {
        EXPECT_FALSE(accepts(var, nullptr)) << var;
        EXPECT_FALSE(accepts(var, "")) << var;
    }
}

TEST(Knobs, FaultFlagsAreTheListKeys)
{
    // Each --fault-* flag is its NISQPP_STREAM_FAULTS key's entry, so
    // the two parse alike; the env-only keys have no flag.
    for (const char *key : {"drop", "corrupt", "dup", "delay", "stall",
                            "fail", "seed"}) {
        const auto *knob = knobs::faultFlag(std::string("--fault-") + key);
        ASSERT_NE(knob, nullptr) << key;
        faults::FaultSpec viaFlag, viaList;
        ASSERT_EQ(knob->parse("1", viaFlag), knobs::Parse::Ok) << key;
        ASSERT_EQ(knobs::faultList((std::string(key) + "=1").c_str(),
                                   viaList),
                  knobs::Parse::Ok)
            << key;
        EXPECT_EQ(viaFlag.seed, viaList.seed) << key;
        EXPECT_EQ(viaFlag.any(), viaList.any()) << key;
    }
    EXPECT_EQ(knobs::faultFlag("--fault-delay-cycles"), nullptr);
    EXPECT_EQ(knobs::faultFlag("--fault-stall-factor"), nullptr);
}

} // namespace
} // namespace nisqpp
