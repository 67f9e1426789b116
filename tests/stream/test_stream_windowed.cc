/** @file Windowed streaming: the pipeline's committed corrections must
 * match direct batch decodeWindow on the same noisy rounds. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "stream/stream_sim.hh"
#include "surface/error_state.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {
namespace {

StreamConfig
windowedConfig(const SurfaceLattice &lat, std::size_t w,
               std::size_t rounds)
{
    StreamConfig config;
    config.lattice = &lat;
    config.physicalRate = 0.03;
    config.measurementFlipRate = 0.03;
    config.windowRounds = w;
    config.rounds = rounds;
    config.seed = 0x71d0ULL;
    config.latency = StreamLatencyModel::constant(850.0);
    return config;
}

template <typename DecoderT>
void
expectStreamMatchesBatchWindows()
{
    SurfaceLattice lat(5);
    const std::size_t w = 5, rounds = 200;
    StreamConfig config = windowedConfig(lat, w, rounds);

    // Pipeline run: capture the correction committed at each window
    // boundary (non-commit rounds observe an empty correction).
    DecoderT streamDec(lat, ErrorType::Z);
    std::vector<std::vector<int>> committed;
    StreamObserver observer = [&](std::size_t k, const Syndrome &,
                                  const Correction &c) {
        if ((k + 1) % w == 0)
            committed.push_back(c.dataFlips);
    };
    const StreamingResult result =
        runStream(config, streamDec, nullptr, &observer);
    ASSERT_EQ(result.windows, rounds / w);
    ASSERT_EQ(committed.size(), rounds / w);

    // Replay: regenerate the identical noisy rounds from the same
    // seed and hand them to decodeWindow directly.
    const NoiseModel model = NoiseModel::dephasing(
        config.physicalRate, config.measurementFlipRate);
    Rng rng(config.seed);
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    DecoderT batchDec(lat, ErrorType::Z);
    TrialWorkspace ws;
    SyndromeWindow window(lat, ErrorType::Z, static_cast<int>(w) + 1);
    Syndrome commitSyn(lat, ErrorType::Z);
    std::size_t failures = 0;
    bool parity = false;
    std::size_t wi = 0;
    for (std::size_t k = 0; k < rounds; ++k) {
        model.sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, syn);
        model.flipMeasurements(rng, syn);
        window.recordRound(static_cast<int>(k % w), syn);
        if ((k + 1) % w != 0)
            continue;
        extractSyndromeInto(state, ErrorType::Z, commitSyn);
        window.recordRound(static_cast<int>(w), commitSyn);
        batchDec.decodeWindow(window, ws);
        EXPECT_EQ(ws.correction.dataFlips, committed[wi])
            << "window " << wi << " diverged from the pipeline";
        ws.correction.applyTo(state, ErrorType::Z);
        const bool now = crossingParity(state, ErrorType::Z);
        if (now != parity)
            ++failures;
        parity = now;
        extractSyndromeInto(state, ErrorType::Z, commitSyn);
        window.reset();
        window.setBaseline(commitSyn);
        ++wi;
    }
    EXPECT_EQ(failures, result.failures);
}

TEST(StreamWindowed, UnionFindMatchesBatchDecodeWindow)
{
    expectStreamMatchesBatchWindows<UnionFindDecoder>();
}

TEST(StreamWindowed, MwpmMatchesBatchDecodeWindow)
{
    expectStreamMatchesBatchWindows<MwpmDecoder>();
}

TEST(StreamWindowed, DeterministicAcrossRuns)
{
    SurfaceLattice lat(3);
    StreamConfig config = windowedConfig(lat, 3, 120);
    UnionFindDecoder a(lat, ErrorType::Z), b(lat, ErrorType::Z);
    const StreamingResult r1 = runStream(config, a);
    const StreamingResult r2 = runStream(config, b);
    EXPECT_EQ(r1.windows, r2.windows);
    EXPECT_EQ(r1.failures, r2.failures);
    EXPECT_EQ(r1.rounds, r2.rounds);
    EXPECT_DOUBLE_EQ(r1.logicalErrorRate, r2.logicalErrorRate);
}

TEST(StreamWindowed, LogicalRateIsPerWindow)
{
    SurfaceLattice lat(3);
    StreamConfig config = windowedConfig(lat, 3, 120);
    UnionFindDecoder dec(lat, ErrorType::Z);
    const StreamingResult r = runStream(config, dec);
    EXPECT_EQ(r.windows, 40u);
    EXPECT_DOUBLE_EQ(r.logicalErrorRate,
                     static_cast<double>(r.failures) / 40.0);
}

TEST(StreamWindowedDeath, RoundsMustDivideIntoWindows)
{
    SurfaceLattice lat(3);
    StreamConfig config = windowedConfig(lat, 3, 100);
    UnionFindDecoder dec(lat, ErrorType::Z);
    EXPECT_DEATH(runStream(config, dec), "multiple of windowRounds");
}

TEST(StreamWindowedDeath, MeasurementNoiseNeedsWindow)
{
    SurfaceLattice lat(3);
    StreamConfig config = windowedConfig(lat, 3, 120);
    config.windowRounds = 0;
    UnionFindDecoder dec(lat, ErrorType::Z);
    EXPECT_DEATH(runStream(config, dec), "requires windowRounds");
}

} // namespace
} // namespace nisqpp
