/**
 * @file
 * require() has two overloads, a string-literal one for hot paths and
 * a std::string one for messages composed at run time. Both must abort
 * with "panic: <msg>" when the check fails and return when it holds.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"

namespace nisqpp {
namespace {

TEST(Require, LiteralMessagePanicsOnFailure)
{
    EXPECT_DEATH(require(false, "literal invariant broke"),
                 "panic: literal invariant broke");
}

TEST(Require, StringMessagePanicsOnFailure)
{
    const std::string what = "composed";
    EXPECT_DEATH(require(false, what + " invariant broke"),
                 "panic: composed invariant broke");
}

TEST(Require, PassingChecksReturn)
{
    const std::string msg = "unused";
    require(true, "literal");
    require(true, msg);
    SUCCEED();
}

} // namespace
} // namespace nisqpp
