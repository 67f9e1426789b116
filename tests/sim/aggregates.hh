/**
 * @file
 * Shared equality checks of the simulator tests: a Monte Carlo result
 * compared field by field (FP accumulations included), a decoder's
 * exported decoder.* counters flattened for whole-set comparison, and
 * a decoder wrapper recording the largest group it was handed.
 */

#ifndef NISQPP_TESTS_SIM_AGGREGATES_HH
#define NISQPP_TESTS_SIM_AGGREGATES_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "decoders/decoder.hh"
#include "obs/metrics.hh"
#include "sim/monte_carlo.hh"

namespace nisqpp {

/** Every aggregate field, including FP accumulations, bit-for-bit. */
inline void
expectSameAggregates(const MonteCarloResult &a, const MonteCarloResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.syndromeResidualFailures, b.syndromeResidualFailures);
    EXPECT_DOUBLE_EQ(a.logicalErrorRate, b.logicalErrorRate);
    EXPECT_EQ(a.cycles.count(), b.cycles.count());
    EXPECT_DOUBLE_EQ(a.cycles.mean(), b.cycles.mean());
    EXPECT_DOUBLE_EQ(a.cycles.variance(), b.cycles.variance());
    EXPECT_DOUBLE_EQ(a.cycles.max(), b.cycles.max());
    ASSERT_EQ(a.cycleHistogram.numBins(), b.cycleHistogram.numBins());
    EXPECT_EQ(a.cycleHistogram.total(), b.cycleHistogram.total());
    for (std::size_t bin = 0; bin < a.cycleHistogram.numBins(); ++bin)
        EXPECT_EQ(a.cycleHistogram.bin(bin), b.cycleHistogram.bin(bin));
}

/** A decoder's exported counters and histograms, flattened. */
inline std::map<std::string, std::vector<std::uint64_t>>
decoderCounters(const Decoder &decoder)
{
    obs::MetricSet m;
    decoder.exportMetrics(m);
    std::map<std::string, std::vector<std::uint64_t>> out;
    m.forEachScalar([&out](const std::string &name, bool,
                           std::uint64_t value) {
        out["scalar." + name] = {value};
    });
    m.forEachHistogram([&out](const std::string &name,
                              const obs::MetricSet::HistogramEntry &e) {
        std::vector<std::uint64_t> v = {e.sum, e.hist.overflow()};
        for (std::size_t i = 0; i < e.hist.numBins(); ++i)
            v.push_back(e.hist.bin(i));
        out["hist." + name] = v;
    });
    return out;
}

/** DecoderT recording the largest group either decode entry saw. */
template <typename DecoderT>
class GroupCounting : public DecoderT
{
  public:
    using DecoderT::DecoderT;
    using DecoderT::decodeBatch;
    using DecoderT::decodeWindowBatch;

    void
    decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                Correction *out, TrialWorkspace &ws) override
    {
        maxGroup = std::max(maxGroup, count);
        DecoderT::decodeBatch(syndromes, count, out, ws);
    }

    void
    decodeWindowBatch(const SyndromeWindow *const *windows,
                      std::size_t count, Correction *out,
                      TrialWorkspace &ws) override
    {
        maxGroup = std::max(maxGroup, count);
        DecoderT::decodeWindowBatch(windows, count, out, ws);
    }

    std::size_t maxGroup = 0;
};

} // namespace nisqpp

#endif // NISQPP_TESTS_SIM_AGGREGATES_HH
