/**
 * @file Fault directives from the environment: the strict token
 * parsers, the NISQPP_FAULT_INJECT write fault and the
 * NISQPP_STREAM_FAULTS twin of the --fault-* flags all follow the
 * warn-and-ignore contract (malformed value -> warning, configuration
 * untouched).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "ckpt/checkpoint.hh"
#include "engine/knobs.hh"
#include "faults/fault_plan.hh"
#include "support/scoped_env.hh"

namespace nisqpp {
namespace {

using knobs::Parse;

TEST(FaultEnvSplit, WellFormedListSplits)
{
    faults::FaultSpec spec;
    ASSERT_EQ(knobs::faultList("drop=1,dup=0.5,seed=7", spec), Parse::Ok);
    EXPECT_DOUBLE_EQ(spec.dropRate, 1.0);
    EXPECT_DOUBLE_EQ(spec.duplicateRate, 0.5);
    EXPECT_EQ(spec.seed, 7u);
}

TEST(FaultEnvSplit, MalformedTokensRejected)
{
    for (const char *bad :
         {"", "noequals", "=1", "drop=", "drop=1=2", "drop=1,,dup=0.2",
          "drop=1,dup=0.2,"}) {
        faults::FaultSpec spec;
        EXPECT_EQ(knobs::faultList(bad, spec), Parse::OutOfRange)
            << "'" << bad << "'";
    }
}

TEST(FaultEnvParse, CountIsStrictDigitsOnly)
{
    std::size_t v = 0;
    EXPECT_EQ(knobs::count("7", 1u << 30, v), Parse::Ok);
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(knobs::count("1000000", 1u << 30, v), Parse::Ok);
    EXPECT_EQ(v, 1000000u);
    for (const char *bad : {"", "0", "-3", "3.5", "12x", " 4"})
        EXPECT_NE(knobs::count(bad, 1u << 30, v), Parse::Ok)
            << "'" << bad << "'";
    EXPECT_EQ(v, 1000000u);
}

TEST(FaultEnvParse, RateIsStrictUnitInterval)
{
    double v = -1.0;
    EXPECT_EQ(knobs::fraction("0", v), Parse::Ok);
    EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(knobs::fraction("0.25", v), Parse::Ok);
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_EQ(knobs::fraction("1", v), Parse::Ok);
    EXPECT_DOUBLE_EQ(v, 1.0);
    EXPECT_EQ(knobs::fraction("1e-2", v), Parse::Ok);
    EXPECT_DOUBLE_EQ(v, 0.01);
    for (const char *bad : {"", "1.5", "-0.1", "nan", "inf", "0.5x"})
        EXPECT_NE(knobs::fraction(bad, v), Parse::Ok)
            << "'" << bad << "'";
    EXPECT_DOUBLE_EQ(v, 0.01);
}

TEST(WriteFaultEnv, ParsesKillAndTear)
{
    using Mode = ckpt::WriteFault::Mode;
    const ckpt::WriteFault kill =
        envValue(knobs::faultInject, "kill-after=3", ckpt::WriteFault{});
    EXPECT_EQ(kill.mode, Mode::Kill);
    EXPECT_EQ(kill.afterWrites, 3u);
    const ckpt::WriteFault tear =
        envValue(knobs::faultInject, "tear-after=12", ckpt::WriteFault{});
    EXPECT_EQ(tear.mode, Mode::Tear);
    EXPECT_EQ(tear.afterWrites, 12u);
}

TEST(WriteFaultEnv, UnsetOrMalformedDisables)
{
    for (const char *value :
         {static_cast<const char *>(nullptr), "explode-after=3",
          "kill-after=", "kill-after=0", "kill-after=2.5",
          "kill-after=9x", "tear-after=-1"}) {
        const ckpt::WriteFault fault =
            envValue(knobs::faultInject, value, ckpt::WriteFault{});
        EXPECT_EQ(fault.mode, ckpt::WriteFault::Mode::None)
            << (value ? value : "(unset)");
        EXPECT_EQ(fault.afterWrites, 0u);
    }
}

TEST(StreamFaultEnv, UnsetLeavesSpecAndReportsAbsent)
{
    ScopedEnv env("NISQPP_STREAM_FAULTS", nullptr);
    faults::FaultSpec spec;
    EXPECT_FALSE(knobs::fromEnv(knobs::streamFaults, spec));
    EXPECT_FALSE(spec.any());
}

TEST(StreamFaultEnv, WellFormedListUpdatesEveryKnob)
{
    ScopedEnv env("NISQPP_STREAM_FAULTS",
                  "drop=0.1,corrupt=0.05,dup=0.02,delay=0.2,"
                  "delay-cycles=5,stall=0.3,stall-factor=2.5,"
                  "fail=0.01,seed=99");
    faults::FaultSpec spec;
    ASSERT_TRUE(knobs::fromEnv(knobs::streamFaults, spec));
    EXPECT_DOUBLE_EQ(spec.dropRate, 0.1);
    EXPECT_DOUBLE_EQ(spec.corruptRate, 0.05);
    EXPECT_DOUBLE_EQ(spec.duplicateRate, 0.02);
    EXPECT_DOUBLE_EQ(spec.delayRate, 0.2);
    EXPECT_EQ(spec.delayCycles, 5);
    EXPECT_DOUBLE_EQ(spec.stallRate, 0.3);
    EXPECT_DOUBLE_EQ(spec.stallFactor, 2.5);
    EXPECT_DOUBLE_EQ(spec.decodeFailRate, 0.01);
    EXPECT_EQ(spec.seed, 99u);
}

TEST(StreamFaultEnv, MalformedDirectiveLeavesSpecUntouched)
{
    // All or nothing: the good leading directive must not land when a
    // later one is bad (half-applied env vars are worse than ignored).
    for (const char *value :
         {"drop=0.1,corrupt=2.0", "drop=abc", "unknown=0.1", "drop",
          "delay-cycles=0", "stall-factor=0.5", "seed=-1"}) {
        ScopedEnv env("NISQPP_STREAM_FAULTS", value);
        faults::FaultSpec spec;
        EXPECT_FALSE(knobs::fromEnv(knobs::streamFaults, spec)) << value;
        EXPECT_FALSE(spec.any()) << value;
        EXPECT_EQ(spec.seed, faults::FaultSpec{}.seed) << value;
    }
}

} // namespace
} // namespace nisqpp
