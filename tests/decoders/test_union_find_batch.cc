/**
 * @file
 * Batch union-find pinned bit-exact against the scalar reference: for
 * every distance the experiments sweep, every noise channel (including
 * erasure marks) and every SIMD dispatch width, decodeBatch() /
 * decodeWindowBatch() must emit corrections AND decoder.uf.* telemetry
 * byte-identical to one-at-a-time scalar decodes of the same syndromes
 * — for batches of one and of many, weight-0 inputs and repeated
 * batches through one decoder. A batch loops the scalar core, so the
 * width loops also pin that union-find ignores the latched width.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "obs/metrics.hh"
#include "surface/error_state.hh"
#include "surface/logical.hh"
#include "surface/syndrome_window.hh"

namespace nisqpp {
namespace {

/** Every dispatch width the runtime can latch. */
const simd::Width kWidths[] = {simd::Width::Scalar, simd::Width::V256,
                               simd::Width::V512};

/** RAII restore of the process-wide dispatch width. */
class WidthGuard
{
  public:
    explicit WidthGuard(simd::Width w) : before_(simd::activeWidth())
    {
        simd::setActiveWidth(w);
    }
    ~WidthGuard() { simd::setActiveWidth(before_); }

  private:
    simd::Width before_;
};

/** One model per kind the noise layer offers. */
std::vector<NoiseModel>
allModels(double p)
{
    return {NoiseModel::depolarizing(p), NoiseModel::dephasing(p),
            NoiseModel::biased(p, 3.0), NoiseModel::erasure(p)};
}

/**
 * Sample @p count syndromes of @p model-generated error states. The
 * first and one middle lane are forced to weight 0 so every batch
 * carries trivially finished lanes next to active ones.
 */
std::vector<Syndrome>
sampleSyndromes(const SurfaceLattice &lat, const NoiseModel &model,
                ErrorType type, int count, Rng &rng)
{
    std::vector<Syndrome> out;
    ErrorState state(lat);
    for (int i = 0; i < count; ++i) {
        Syndrome syn(lat, type);
        if (i != 0 && i != count / 2) {
            state.clear();
            model.sample(rng, state);
            extractSyndromeInto(state, type, syn);
        }
        out.push_back(std::move(syn));
    }
    return out;
}

/** Flatten a MetricSet for whole-set equality checks. */
std::map<std::string, std::vector<std::uint64_t>>
metricMap(const UnionFindDecoder &dec)
{
    obs::MetricSet m;
    dec.exportMetrics(m);
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

/**
 * Decode @p syns one-by-one through @p scalar and batched through
 * @p batched, asserting bit-identical corrections and counters.
 */
void
expectBatchMatchesScalar(UnionFindDecoder &scalar,
                         UnionFindDecoder &batched,
                         const std::vector<Syndrome> &syns,
                         const std::string &label)
{
    TrialWorkspace sws;
    std::vector<Correction> expected;
    for (const Syndrome &syn : syns) {
        scalar.decode(syn, sws);
        expected.push_back(sws.correction);
    }

    std::vector<const Syndrome *> ptrs;
    for (const Syndrome &syn : syns)
        ptrs.push_back(&syn);
    TrialWorkspace ws;
    batched.decodeBatch(ptrs.data(), ptrs.size(), ws);

    ASSERT_GE(ws.laneCorrections.size(), syns.size()) << label;
    for (std::size_t i = 0; i < syns.size(); ++i)
        EXPECT_EQ(ws.laneCorrections[i].dataFlips,
                  expected[i].dataFlips)
            << label << ": correction of lane " << i;
    EXPECT_EQ(metricMap(batched), metricMap(scalar)) << label;
}

TEST(UnionFindBatch, MatchesScalarAcrossDistancesAndChannels)
{
    Rng rng(0xbeefcafeULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        for (int d : {3, 5, 7, 9}) {
            SurfaceLattice lat(d);
            for (const NoiseModel &model : allModels(0.08)) {
                for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                    if (type == ErrorType::X && !model.producesX())
                        continue;
                    UnionFindDecoder scalar(lat, type);
                    UnionFindDecoder batched(lat, type);
                    const auto syns = sampleSyndromes(
                        lat, model, type, 160, rng);
                    const std::string label =
                        "d=" + std::to_string(d) + " " +
                        model.name() + " " + simd::widthName(w) +
                        (type == ErrorType::Z ? " Z" : " X");
                    // Batches of one and two first, skipping the
                    // forced-empty input 0.
                    for (std::size_t size : {1u, 2u})
                        expectBatchMatchesScalar(
                            scalar, batched,
                            {syns.begin() + 1, syns.begin() + 1 + size},
                            label + " size " + std::to_string(size));
                    expectBatchMatchesScalar(scalar, batched, syns,
                                             label);
                }
            }
        }
    }
}

TEST(UnionFindBatch, HeavySyndromesAndRepeatedBatches)
{
    // Back-to-back batches of varying sizes (including size 1) through
    // one decoder: later batches must not see earlier inputs' cluster
    // state, and counters accumulate across batches exactly as a
    // scalar decoder's do.
    Rng rng(0x0ddba11ULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        SurfaceLattice lat(9);
        UnionFindDecoder scalar(lat, ErrorType::Z);
        UnionFindDecoder batched(lat, ErrorType::Z);
        ErrorState state(lat);
        for (int size : {67, 1, 8, 3, 129, 5}) {
            std::vector<Syndrome> syns;
            for (int i = 0; i < size; ++i) {
                Syndrome syn(lat, ErrorType::Z);
                // Heavy (p up to 30%) rounds grow clusters that
                // merge, touch the boundary and peel long chains.
                state.clear();
                NoiseModel::dephasing(0.02 + 0.28 * rng.uniform())
                    .sample(rng, state);
                extractSyndromeInto(state, ErrorType::Z, syn);
                syns.push_back(std::move(syn));
            }
            expectBatchMatchesScalar(scalar, batched, syns,
                                     simd::widthName(w) +
                                         std::string(" batch size ") +
                                         std::to_string(size));
        }
    }
}

TEST(UnionFindBatch, ErasureMarkedLatticeStillMatches)
{
    // The erasure channel flags marked qubits while injecting random
    // Paulis; the decoder consumes only the syndrome, but the marked
    // error states exercise Y components (X and Z simultaneously).
    Rng rng(0x5eedULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        for (int d : {5, 9}) {
            SurfaceLattice lat(d);
            const NoiseModel model = NoiseModel::erasure(0.12);
            for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                UnionFindDecoder scalar(lat, type);
                UnionFindDecoder batched(lat, type);
                const auto syns =
                    sampleSyndromes(lat, model, type, 40, rng);
                EXPECT_GT(model.erasureMarks().popcount(), 0);
                expectBatchMatchesScalar(
                    scalar, batched, syns,
                    "erasure d=" + std::to_string(d));
            }
            model.clearErasureMarks();
        }
    }
}

/**
 * Record a @p w noisy-round window of @p model's data noise and
 * measurement flips into @p win (round w is the perfect commit round).
 */
void
buildNoisyWindow(const SurfaceLattice &lat, int w,
                 const NoiseModel &model, Rng &rng, SyndromeWindow &win)
{
    win.reset();
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    for (int t = 0; t < w; ++t) {
        model.sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, syn);
        model.flipMeasurements(rng, syn);
        win.recordRound(t, syn);
    }
    extractSyndromeInto(state, ErrorType::Z, syn);
    win.recordRound(w, syn);
}

/**
 * Decode @p windows one-by-one through @p scalar and batched through
 * @p batched, asserting bit-identical corrections and counters.
 */
void
expectWindowBatchMatchesScalar(
    UnionFindDecoder &scalar, UnionFindDecoder &batched,
    const std::vector<const SyndromeWindow *> &windows,
    const std::string &label)
{
    TrialWorkspace sws;
    std::vector<Correction> expected;
    for (const SyndromeWindow *win : windows) {
        scalar.decodeWindow(*win, sws);
        expected.push_back(sws.correction);
    }
    TrialWorkspace ws;
    batched.decodeWindowBatch(windows.data(), windows.size(), ws);
    ASSERT_GE(ws.laneCorrections.size(), windows.size()) << label;
    for (std::size_t i = 0; i < windows.size(); ++i)
        EXPECT_EQ(ws.laneCorrections[i].dataFlips, expected[i].dataFlips)
            << label << ": lane " << i;
    EXPECT_EQ(metricMap(batched), metricMap(scalar)) << label;
}

TEST(UnionFindBatch, WindowedSpacetimeMatchesScalar)
{
    // Spacetime windows with faulty measurement: decodeWindowBatch
    // must match decodeWindow lane for lane, including windows whose
    // detection-event sets are empty.
    Rng rng(0x77a11ULL);
    for (simd::Width w : kWidths) {
        WidthGuard guard(w);
        for (int d : {3, 5, 7}) {
            SurfaceLattice lat(d);
            const NoiseModel model = NoiseModel::dephasing(0.04, 0.03);
            UnionFindDecoder scalar(lat, ErrorType::Z);
            UnionFindDecoder batched(lat, ErrorType::Z);

            std::vector<const SyndromeWindow *> windows;
            std::vector<std::unique_ptr<SyndromeWindow>> owned;
            for (int i = 0; i < 3 * d + 2; ++i) {
                auto win = std::make_unique<SyndromeWindow>(
                    lat, ErrorType::Z, d + 1);
                if (i == 0 || i == d)
                    win->reset(); // empty window: zero events
                else
                    buildNoisyWindow(lat, d, model, rng, *win);
                windows.push_back(win.get());
                owned.push_back(std::move(win));
            }

            const std::string label =
                "window d=" + std::to_string(d) + " " +
                simd::widthName(w);
            // One lane, two lanes (skipping the empty window 0), then
            // the whole set through one batch.
            for (std::size_t size : {1u, 2u})
                expectWindowBatchMatchesScalar(
                    scalar, batched,
                    {windows.begin() + 1, windows.begin() + 1 + size},
                    label + " size " + std::to_string(size));
            expectWindowBatchMatchesScalar(scalar, batched, windows,
                                           label);
        }
    }
}

TEST(UnionFindBatchDeathTest, MixedRoundWindowsAreRejected)
{
    // The decoder caches one spacetime graph, so a batch of windows
    // with unequal round counts is a caller bug.
    SurfaceLattice lat(5);
    UnionFindDecoder batched(lat, ErrorType::Z);
    SyndromeWindow three(lat, ErrorType::Z, 4);
    SyndromeWindow six(lat, ErrorType::Z, 7);
    const SyndromeWindow *ptrs[] = {&three, &six};
    TrialWorkspace ws;
    EXPECT_DEATH(batched.decodeWindowBatch(ptrs, 2, ws),
                 "same round count");
}

TEST(UnionFindBatch, CorrectionClearsSyndromeHolds)
{
    // The annihilation trait the benchmark replay's residual check
    // relies on: applying the committed correction leaves a clear
    // syndrome.
    Rng rng(0xc1ea2ULL);
    SurfaceLattice lat(9);
    UnionFindDecoder dec(lat, ErrorType::Z);
    ASSERT_TRUE(dec.correctionClearsSyndrome());
    TrialWorkspace ws;
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    for (int trial = 0; trial < 200; ++trial) {
        state.clear();
        NoiseModel::dephasing(0.01 + 0.2 * rng.uniform())
            .sample(rng, state);
        extractSyndromeInto(state, ErrorType::Z, syn);
        dec.decode(syn, ws);
        ws.correction.applyTo(state, ErrorType::Z);
        extractSyndromeInto(state, ErrorType::Z, syn);
        EXPECT_EQ(syn.weight(), 0) << "trial " << trial;
    }
}

} // namespace
} // namespace nisqpp
