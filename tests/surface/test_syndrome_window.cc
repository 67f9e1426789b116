/** @file Multi-round detection-event window semantics. */

#include <gtest/gtest.h>

#include <vector>

#include "surface/syndrome_window.hh"

namespace nisqpp {
namespace {

Syndrome
syndromeOf(const SurfaceLattice &lat, ErrorType type,
           const std::vector<int> &hot)
{
    Syndrome s(lat, type);
    for (int a : hot)
        s.set(a, true);
    return s;
}

/** Detection events in the whole window. */
int
eventCount(const SyndromeWindow &win)
{
    int n = 0;
    win.forEachEvent([&n](int, int) { ++n; });
    return n;
}

TEST(SyndromeWindow, EventsAreXorOfConsecutiveRounds)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 3);
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {1}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {1, 4}));
    win.recordRound(2, syndromeOf(lat, ErrorType::Z, {4}));

    // Round 0 events = round 0 vs the all-zero baseline.
    EXPECT_TRUE(win.event(0, 1));
    EXPECT_EQ(win.eventBits(0).popcount(), 1);
    // Round 1: ancilla 1 unchanged (no event), ancilla 4 newly hot.
    EXPECT_FALSE(win.event(1, 1));
    EXPECT_TRUE(win.event(1, 4));
    // Round 2: ancilla 1 cooled (event), ancilla 4 unchanged.
    EXPECT_TRUE(win.event(2, 1));
    EXPECT_FALSE(win.event(2, 4));
    EXPECT_EQ(eventCount(win), 3);
}

TEST(SyndromeWindow, BaselineShiftsRoundZeroEvents)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 2);
    win.setBaseline(syndromeOf(lat, ErrorType::Z, {2}));
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {2}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {2}));
    // Ancilla 2 was already hot in the carried-in frame: no events.
    EXPECT_EQ(eventCount(win), 0);
}

TEST(SyndromeWindow, ResetClearsRoundsAndBaseline)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 2);
    win.setBaseline(syndromeOf(lat, ErrorType::Z, {0}));
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {0, 3}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {3}));
    win.reset();
    EXPECT_EQ(win.recorded(), 0);
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {0}));
    // After reset the baseline is zero again: ancilla 0 fires.
    EXPECT_TRUE(win.event(0, 0));
}

TEST(SyndromeWindow, MeasurementFlipFiresTwoEvents)
{
    // A lone readout flip at round t fires events at t and t + 1 on
    // the same ancilla — the signature time-like edges absorb.
    SurfaceLattice lat(5);
    SyndromeWindow win(lat, ErrorType::Z, 4);
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {7}));
    win.recordRound(2, syndromeOf(lat, ErrorType::Z, {}));
    win.recordRound(3, syndromeOf(lat, ErrorType::Z, {}));
    EXPECT_EQ(eventCount(win), 2);
    EXPECT_TRUE(win.event(1, 7));
    EXPECT_TRUE(win.event(2, 7));
}

TEST(SyndromeWindow, ForEachEventAscendingOrder)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 2);
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {5, 2}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {5, 2, 3}));
    std::vector<std::pair<int, int>> seen;
    win.forEachEvent([&seen](int t, int a) { seen.push_back({t, a}); });
    const std::vector<std::pair<int, int>> expected{
        {0, 2}, {0, 5}, {1, 3}};
    EXPECT_EQ(seen, expected);
}

TEST(SyndromeWindow, MajorityVote)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 3);
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {1, 2}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {1}));
    win.recordRound(2, syndromeOf(lat, ErrorType::Z, {1, 5}));
    Syndrome vote(lat, ErrorType::Z);
    win.majorityVote(vote);
    EXPECT_TRUE(vote.hot(1));  // 3 of 3
    EXPECT_FALSE(vote.hot(2)); // 1 of 3
    EXPECT_FALSE(vote.hot(5)); // 1 of 3
    EXPECT_EQ(vote.weight(), 1);
}

TEST(SyndromeWindow, MajorityVoteTiesVoteCold)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 2);
    win.recordRound(0, syndromeOf(lat, ErrorType::Z, {4}));
    win.recordRound(1, syndromeOf(lat, ErrorType::Z, {}));
    Syndrome vote(lat, ErrorType::Z);
    win.majorityVote(vote);
    EXPECT_EQ(vote.weight(), 0);
}

TEST(SyndromeWindowDeath, OutOfOrderRoundPanics)
{
    SurfaceLattice lat(3);
    SyndromeWindow win(lat, ErrorType::Z, 2);
    EXPECT_DEATH(win.recordRound(1, Syndrome(lat, ErrorType::Z)),
                 "in order");
}

} // namespace
} // namespace nisqpp
