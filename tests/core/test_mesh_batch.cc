/**
 * @file
 * Lane-packed batch decoding pinned to the scalar mesh path: for every
 * distance/variant the experiments run, decodeBatch() must produce
 * corrections AND per-lane telemetry bit-identical to one-at-a-time
 * scalar decodes of the same syndromes — on both sides of the count
 * selection (a batch of one steps the single-lane engine with its rows
 * stacked into strips, two or more the lane-packed one with one row
 * per word), including lanes that hit
 * quiescence or the cycle cap while sibling lanes keep stepping, and
 * empty lanes that finish at cycle 0 next to heavy ones. The 256- and
 * 512-bit words are also decoded through both of their builds, portable
 * and native-ISA, which must agree bit for bit, and one-lane decodes at
 * every width (whose strip rows run across the word's elements) must
 * match the 64-bit strip decode.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/mesh_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"

namespace nisqpp {
namespace {

/** All four incremental designs of the paper's Fig. 10 top row. */
std::vector<MeshConfig>
allVariants()
{
    return {MeshConfig::baseline(), MeshConfig::withReset(),
            MeshConfig::withResetAndBoundary(),
            MeshConfig::finalDesign()};
}

/** Random syndrome: each ancilla hot with probability @p p. */
Syndrome
randomSyndrome(const SurfaceLattice &lat, ErrorType type, double p,
               Rng &rng)
{
    Syndrome syn(lat, type);
    for (int a = 0; a < lat.numAncilla(type); ++a)
        if (rng.bernoulli(p))
            syn.set(a, true);
    return syn;
}

/**
 * Decode @p syns scalar one-by-one through @p reference and batched
 * through @p batched, asserting bit-identical corrections and stats.
 */
void
expectBatchMatchesScalar(MeshDecoder &reference, MeshDecoder &batched,
                         const std::vector<Syndrome> &syns,
                         const char *label)
{
    std::vector<Correction> expected;
    std::vector<MeshDecodeStats> expectedStats;
    for (const Syndrome &syn : syns) {
        expected.push_back(reference.decode(syn));
        expectedStats.push_back(reference.lastStats());
    }

    std::vector<const Syndrome *> ptrs;
    for (const Syndrome &syn : syns)
        ptrs.push_back(&syn);
    TrialWorkspace ws;
    batched.decodeBatch(ptrs.data(), ptrs.size(), ws);

    ASSERT_GE(ws.laneCorrections.size(), syns.size()) << label;
    for (std::size_t i = 0; i < syns.size(); ++i) {
        EXPECT_EQ(ws.laneCorrections[i].dataFlips,
                  expected[i].dataFlips)
            << label << ": correction of lane " << i;
        const MeshDecodeStats *stats = batched.meshStats(i);
        ASSERT_NE(stats, nullptr) << label << ": lane " << i;
        EXPECT_EQ(*stats, expectedStats[i])
            << label << ": stats of lane " << i << " (cycles "
            << stats->cycles << " vs " << expectedStats[i].cycles
            << ")";
    }
    EXPECT_EQ(batched.meshStats(syns.size()), nullptr) << label;
}

/** 64-bit elements of the lane word behind a dispatch width. */
int
elementsOfWidth(simd::Width w)
{
    switch (w) {
      case simd::Width::Scalar:
        return 1;
      case simd::Width::V256:
        return 4;
      case simd::Width::V512:
        return 8;
    }
    return 1;
}

TEST(MeshBatch, LaneCountTracksSpanAndWidth)
{
    // Lane width is the row span 2d + 1 (the grid plus the boundary
    // ring), so each 64-bit element of the dispatched lane word
    // carries 64 / span sub-lanes and the engine steps elements x that
    // many trials at once, capped at kMaxLanes. Pinned at every
    // dispatch width, not just the CPUID default.
    const simd::Width before = simd::activeWidth();
    for (simd::Width w : {simd::Width::Scalar, simd::Width::V256,
                          simd::Width::V512}) {
        simd::setActiveWidth(w);
        for (int d : {3, 5, 7, 9}) {
            SurfaceLattice lat(d);
            const int span = lat.gridSize() + 2;
            const int expected =
                std::min(MeshDecoder::kMaxLanes,
                         elementsOfWidth(w) * (64 / span));
            MeshDecoder mesh(lat, ErrorType::Z);
            EXPECT_EQ(mesh.batchWidth(), w) << "d=" << d;
            EXPECT_EQ(mesh.batchLanes(), expected) << "d=" << d;
            EXPECT_GE(expected, 1) << "d=" << d;
            // The one-lane engine's strip rows run across the word's
            // elements: at d = 9 (span 19, 3 strips of 7 rows) a plane
            // is 7 words of 64 bits, 2 of 256 and 1 of 512.
            const int strip_rows = (span + 64 / span - 1) / (64 / span);
            const int e = elementsOfWidth(w);
            EXPECT_EQ(mesh.stripWords(), (strip_rows + e - 1) / e)
                << "d=" << d;
            if (d == 9) {
                EXPECT_EQ(mesh.stripWords(),
                          w == simd::Width::Scalar ? 7
                          : w == simd::Width::V256 ? 2
                                                   : 1);
            }
        }
    }
    simd::setActiveWidth(before);
}

TEST(MeshBatch, MatchesScalarAcrossDistancesAndVariants)
{
    // A batch of one stacks its rows into strips; larger batches keep
    // one row per word, so this compares the two layouts at the
    // default width. d = 11 and 13 have two strips with padding rows,
    // and d = 17 (span 35) is a single strip.
    Rng rng(0xba7c4ULL);
    for (int d : {3, 5, 7, 9, 11, 13, 17}) {
        SurfaceLattice lat(d);
        for (const MeshConfig &config : allVariants()) {
            for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                MeshDecoder reference(lat, type, config);
                MeshDecoder batched(lat, type, config);
                // Mixed severity: empty lanes, typical p = 5% lanes
                // and heavy p = 25% lanes inside the same batch.
                std::vector<Syndrome> syns;
                for (double p : {0.0, 0.05, 0.05, 0.25, 0.05, 0.25,
                                 0.0, 0.15, 0.05, 0.25, 0.05})
                    syns.push_back(
                        randomSyndrome(lat, type, p, rng));
                const std::string label =
                    "d=" + std::to_string(d) + " " + config.label() +
                    (type == ErrorType::Z ? " Z" : " X");
                // One lane and two lanes (skipping the empty lane 0),
                // then the whole mixed batch.
                for (std::size_t size : {1u, 2u}) {
                    const std::string sized =
                        label + " size " + std::to_string(size);
                    expectBatchMatchesScalar(
                        reference, batched,
                        {syns.begin() + 1, syns.begin() + 1 + size},
                        sized.c_str());
                }
                expectBatchMatchesScalar(reference, batched, syns,
                                         label.c_str());
            }
        }
    }
}

TEST(MeshBatch, QuiescedAndCappedLanesFreezeIndependently)
{
    Rng rng(0x0ddba11ULL);
    for (int d : {5, 9}) {
        SurfaceLattice lat(d);
        for (const MeshConfig &config : allVariants()) {
            MeshDecoder reference(lat, ErrorType::Z, config);
            MeshDecoder batched(lat, ErrorType::Z, config);
            // A tight cap and quiescence window force cap/quiescence
            // exits on heavy lanes while empty lanes still complete
            // normally at cycle 0.
            reference.setLimitsForTest(3 * d, 4);
            batched.setLimitsForTest(3 * d, 4);
            std::vector<Syndrome> syns;
            for (double p : {0.35, 0.0, 0.2, 0.35, 0.0, 0.5, 0.1,
                             0.35, 0.2})
                syns.push_back(randomSyndrome(lat, ErrorType::Z, p,
                                              rng));
            const std::string label = "capped d=" + std::to_string(d) +
                                      " " + config.label();
            expectBatchMatchesScalar(reference, batched, syns,
                                     label.c_str());

            // The point of the tight limits: the batch must actually
            // contain lanes that exited three different ways.
            bool sawNormal = false, sawLimit = false;
            for (std::size_t i = 0; i < syns.size(); ++i) {
                const MeshDecodeStats &s = *batched.meshStats(i);
                sawNormal |= !s.quiesced && !s.timedOut;
                sawLimit |= s.quiesced || s.timedOut;
            }
            EXPECT_TRUE(sawNormal) << label;
            EXPECT_TRUE(sawLimit) << label;
        }
    }
}

TEST(MeshBatch, DivergingCompletionCyclesWithinOneWord)
{
    // One word carries lanes finishing at different cycles: an empty
    // lane (0 cycles), a single-pair lane and a multi-pair lane.
    SurfaceLattice lat(5);
    MeshDecoder reference(lat, ErrorType::Z);
    MeshDecoder batched(lat, ErrorType::Z);

    std::vector<Syndrome> syns(8, Syndrome(lat, ErrorType::Z));
    syns[1].set(0, true);
    syns[1].set(1, true);
    for (int a = 0; a < lat.numAncilla(ErrorType::Z); a += 2)
        syns[3].set(a, true);
    syns[5].set(4, true);
    syns[5].set(7, true);
    expectBatchMatchesScalar(reference, batched, syns,
                             "diverging-cycles");

    std::vector<int> cycles;
    for (int i = 0; i < 8; ++i)
        cycles.push_back(batched.meshStats(i)->cycles);
    EXPECT_EQ(cycles[0], 0);
    EXPECT_GT(cycles[3], 0);
    EXPECT_NE(cycles[1], cycles[3]);
}

TEST(MeshBatch, SoftwareFallbackLoopMatchesScalar)
{
    // A software decoder's batch matches one-at-a-time decodes and
    // carries no mesh telemetry.
    SurfaceLattice lat(7);
    UnionFindDecoder dec(lat, ErrorType::Z);
    Rng rng(0x5caff01dULL);

    std::vector<Syndrome> syns;
    for (double p : {0.0, 0.05, 0.2, 0.1, 0.05})
        syns.push_back(randomSyndrome(lat, ErrorType::Z, p, rng));

    std::vector<Correction> expected;
    for (const Syndrome &syn : syns)
        expected.push_back(dec.decode(syn));

    std::vector<const Syndrome *> ptrs;
    for (const Syndrome &syn : syns)
        ptrs.push_back(&syn);
    TrialWorkspace ws;
    dec.decodeBatch(ptrs.data(), ptrs.size(), ws);
    for (std::size_t i = 0; i < syns.size(); ++i)
        EXPECT_EQ(ws.laneCorrections[i].dataFlips,
                  expected[i].dataFlips);
    EXPECT_EQ(dec.meshStats(), nullptr);
}

TEST(MeshBatch, RepeatedBatchesReuseStateCleanly)
{
    // Back-to-back batches of different sizes through one decoder and
    // one workspace: later batches must not see earlier lanes' state.
    SurfaceLattice lat(9);
    MeshDecoder reference(lat, ErrorType::Z);
    MeshDecoder batched(lat, ErrorType::Z);
    Rng rng(0x2ea7edULL);
    TrialWorkspace ws;

    for (std::size_t size : {7u, 3u, 8u, 1u, 5u}) {
        std::vector<Syndrome> syns;
        for (std::size_t i = 0; i < size; ++i)
            syns.push_back(
                randomSyndrome(lat, ErrorType::Z, 0.12, rng));
        std::vector<const Syndrome *> ptrs;
        for (const Syndrome &syn : syns)
            ptrs.push_back(&syn);
        batched.decodeBatch(ptrs.data(), ptrs.size(), ws);
        for (std::size_t i = 0; i < size; ++i) {
            const Correction expected = reference.decode(syns[i]);
            EXPECT_EQ(ws.laneCorrections[i].dataFlips,
                      expected.dataFlips)
                << "batch size " << size << " lane " << i;
            EXPECT_EQ(*batched.meshStats(i), reference.lastStats());
        }
    }
}

/** Restores the SIMD width and the engine build on scope exit. */
struct BuildGuard
{
    simd::Width saved = simd::activeWidth();
    ~BuildGuard()
    {
        simd::setActiveWidth(saved);
        simd::setPortableForTest(false);
    }
};

/** One decode's stats and correction, as comparable text. */
void
recordLane(std::ostream &os, std::size_t i, const MeshDecodeStats &st,
           const Correction &correction)
{
    os << "lane " << i << ": cycles=" << st.cycles
       << " pairings=" << st.pairings << " resets=" << st.resets
       << " hot=" << st.remainingHot << " quiesced=" << st.quiesced
       << " timedOut=" << st.timedOut << " flips=";
    for (int q : correction.dataFlips)
        os << q << ',';
    os << '\n';
}

/** The decoder.mesh.* counters of @p mesh, as comparable text. */
void
recordCounters(std::ostream &os, const MeshDecoder &mesh)
{
    obs::MetricSet counters;
    mesh.exportMetrics(counters);
    counters.forEachScalar(
        [&os](const std::string &name, bool, std::uint64_t value) {
            os << name << '=' << value << '\n';
        });
}

/** Everything a batch decode must reproduce, as comparable text. */
std::string
decodeRecord(MeshDecoder &mesh, const std::vector<Syndrome> &syns)
{
    std::vector<const Syndrome *> ptrs;
    for (const Syndrome &syn : syns)
        ptrs.push_back(&syn);
    TrialWorkspace ws;
    mesh.decodeBatch(ptrs.data(), ptrs.size(), ws);
    std::ostringstream os;
    for (std::size_t i = 0; i < syns.size(); ++i)
        recordLane(os, i, *mesh.meshStats(i), ws.laneCorrections[i]);
    recordCounters(os, mesh);
    return os.str();
}

/**
 * Decode mixed batches at @p width through the portable build, which
 * must match one-at-a-time strip decodes, and then through the native
 * build, which must match the portable one: corrections, per-lane
 * MeshDecodeStats and decoder.mesh.* counters. Only the native half is
 * skipped, and only when the CPU lacks the width's ISA.
 */
void
expectNativeMatchesPortable(simd::Width width)
{
    BuildGuard guard;
    simd::setActiveWidth(width);
    const bool native = simd::cpuSupports(width);
    Rng rng(0x1a5eedULL);
    for (int d : {3, 5, 7, 9, 11}) {
        SurfaceLattice lat(d);
        for (const MeshConfig &config : allVariants()) {
            for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                // More trials than lanes, so freed lanes are refilled.
                std::vector<Syndrome> syns;
                for (int t = 0; t < 90; ++t)
                    syns.push_back(randomSyndrome(
                        lat, type, 0.02 + 0.04 * (t % 6), rng));
                const std::string label =
                    "d=" + std::to_string(d) + " " + config.label() +
                    (type == ErrorType::Z ? " Z" : " X");

                simd::setPortableForTest(true);
                MeshDecoder reference(lat, type, config);
                MeshDecoder checked(lat, type, config);
                ASSERT_FALSE(checked.batchNative()) << label;
                expectBatchMatchesScalar(reference, checked, syns,
                                         label.c_str());
                MeshDecoder portable(lat, type, config);
                const std::string expected = decodeRecord(portable, syns);

                if (!native)
                    continue;
                simd::setPortableForTest(false);
                MeshDecoder nativeMesh(lat, type, config);
                ASSERT_TRUE(nativeMesh.batchNative()) << label;
                EXPECT_EQ(decodeRecord(nativeMesh, syns), expected)
                    << label;

                // Tight limits: lanes exit by cap and quiescence.
                portable.setLimitsForTest(3 * d, 4);
                nativeMesh.setLimitsForTest(3 * d, 4);
                EXPECT_EQ(decodeRecord(nativeMesh, syns),
                          decodeRecord(portable, syns))
                    << "capped " << label;
            }
        }
    }
    if (!native)
        GTEST_SKIP() << "native half skipped: the CPU lacks the ISA of "
                     << simd::widthName(width);
}

/** decodeRecord of @p syns decoded one at a time (batches of one). */
std::string
oneLaneRecord(MeshDecoder &mesh, const std::vector<Syndrome> &syns)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < syns.size(); ++i) {
        const Correction correction = mesh.decode(syns[i]);
        recordLane(os, i, mesh.lastStats(), correction);
    }
    recordCounters(os, mesh);
    return os.str();
}

TEST(MeshBatch, OneLaneMatchesScalarStripAtEveryWidth)
{
    // A batch of one runs the latched width's one-lane engine, whose
    // strip rows run across the word's elements (2 words of 256 or 1
    // of 512 bits per plane at d = 9, 7 of 64). Every width and build
    // must reproduce the 64-bit strip decode: corrections, per-decode
    // stats and counters, also under tight cap/quiescence limits.
    BuildGuard guard;
    Rng rng(0x0e1a2eULL);
    for (int d : {3, 5, 7, 9, 11, 17}) {
        SurfaceLattice lat(d);
        for (const MeshConfig &config : allVariants()) {
            for (ErrorType type : {ErrorType::Z, ErrorType::X}) {
                std::vector<Syndrome> syns;
                for (double p : {0.0, 0.05, 0.25, 0.1, 0.05, 0.4})
                    syns.push_back(randomSyndrome(lat, type, p, rng));
                const std::string label =
                    "d=" + std::to_string(d) + " " + config.label() +
                    (type == ErrorType::Z ? " Z" : " X");

                simd::setActiveWidth(simd::Width::Scalar);
                MeshDecoder strip(lat, type, config);
                const std::string expected = oneLaneRecord(strip, syns);
                MeshDecoder stripCapped(lat, type, config);
                stripCapped.setLimitsForTest(3 * d, 4);
                const std::string expectedCapped =
                    oneLaneRecord(stripCapped, syns);
                EXPECT_TRUE(
                    expectedCapped.find("quiesced=1") != std::string::npos ||
                    expectedCapped.find("timedOut=1") != std::string::npos)
                    << "no decode hit the tight limits: " << label;

                for (simd::Width w :
                     {simd::Width::V256, simd::Width::V512}) {
                    simd::setActiveWidth(w);
                    for (bool portable : {true, false}) {
                        if (!portable && !simd::cpuSupports(w))
                            continue;
                        simd::setPortableForTest(portable);
                        const std::string at =
                            label + " " + simd::widthName(w) +
                            (portable ? " portable" : " native");
                        MeshDecoder mesh(lat, type, config);
                        ASSERT_EQ(mesh.batchNative(),
                                  simd::nativeEngine(w))
                            << at;
                        const int e = elementsOfWidth(w);
                        EXPECT_EQ(mesh.stripWords(),
                                  (strip.stripWords() + e - 1) / e)
                            << at;
                        EXPECT_EQ(oneLaneRecord(mesh, syns), expected)
                            << at;
                        MeshDecoder capped(lat, type, config);
                        capped.setLimitsForTest(3 * d, 4);
                        EXPECT_EQ(oneLaneRecord(capped, syns),
                                  expectedCapped)
                            << "capped " << at;
                    }
                    simd::setPortableForTest(false);
                }
            }
        }
    }
}

TEST(MeshBatch, RefilledLanesHitEveryExitAtEveryWidthAndBuild)
{
    // Under tight limits a batch of three times the lane count keeps
    // refilling lanes that were capped or quiesced mid-flight, next to
    // lanes that complete. Between steps the engine visits only lanes
    // that can change (no hot module left, idle, or past the earliest
    // cap/quiescence deadline), so every trial must still retire on
    // its own cycle, exactly as decoding it alone: corrections and
    // every MeshDecodeStats field, at every width and build. A 3d cap
    // with a 4-cycle window exits mostly by quiescence; a 2d cap
    // inside a 16d window by the cap alone.
    BuildGuard guard;
    struct Build
    {
        simd::Width width;
        bool portable;
        bool capped = false, quiesced = false, completed = false;
    };
    // The 64-bit word has a single build.
    std::vector<Build> builds{{simd::Width::Scalar, false}};
    for (simd::Width w : {simd::Width::V256, simd::Width::V512}) {
        builds.push_back({w, true});
        if (simd::cpuSupports(w))
            builds.push_back({w, false});
    }
    Rng rng(0x3ef111ULL);
    for (int d : {3, 5, 9}) {
        SurfaceLattice lat(d);
        for (const MeshConfig &config : allVariants()) {
            std::vector<Syndrome> syns;
            for (int t = 0; t < 3 * MeshDecoder::kMaxLanes; ++t)
                syns.push_back(randomSyndrome(
                    lat, ErrorType::Z, 0.1 * (t % 6), rng));
            for (const bool quiet : {true, false}) {
                const int cap = quiet ? 3 * d : 2 * d;
                const int window = quiet ? 4 : 16 * d;
                simd::setActiveWidth(simd::Width::Scalar);
                simd::setPortableForTest(false);
                MeshDecoder reference(lat, ErrorType::Z, config);
                reference.setLimitsForTest(cap, window);

                for (Build &b : builds) {
                    simd::setActiveWidth(b.width);
                    simd::setPortableForTest(b.portable);
                    const std::string label =
                        "d=" + std::to_string(d) + " " + config.label() +
                        " " + simd::widthName(b.width) +
                        (b.portable ? " portable" : " native") +
                        " cap " + std::to_string(cap) + " window " +
                        std::to_string(window);
                    MeshDecoder batched(lat, ErrorType::Z, config);
                    batched.setLimitsForTest(cap, window);
                    ASSERT_EQ(batched.batchNative(), !b.portable) << label;
                    ASSERT_LE(3 * batched.batchLanes(),
                              static_cast<int>(syns.size()))
                        << label;
                    expectBatchMatchesScalar(reference, batched, syns,
                                             label.c_str());

                    // Trials past the first batchLanes() ran in
                    // refilled lanes; each batch exits them by its
                    // binding limit.
                    bool capped = false, quiesced = false;
                    for (std::size_t i = batched.batchLanes();
                         i < syns.size(); ++i) {
                        const MeshDecodeStats &s = *batched.meshStats(i);
                        capped |= s.timedOut;
                        quiesced |= s.quiesced;
                        b.completed |=
                            s.cycles > 0 && !s.timedOut && !s.quiesced;
                    }
                    EXPECT_TRUE(quiet ? quiesced : capped) << label;
                    b.capped |= capped;
                    b.quiesced |= quiesced;
                }
            }
        }
    }
    for (const Build &b : builds) {
        const std::string label = std::string(simd::widthName(b.width)) +
                                  (b.portable ? " portable" : " native");
        EXPECT_TRUE(b.capped) << label;
        EXPECT_TRUE(b.quiesced) << label;
        EXPECT_TRUE(b.completed) << label;
    }
}

TEST(MeshBatch, NativeBuildMatchesPortableAtV256)
{
    expectNativeMatchesPortable(simd::Width::V256);
}

TEST(MeshBatch, NativeBuildMatchesPortableAtV512)
{
    expectNativeMatchesPortable(simd::Width::V512);
}

TEST(MeshBatch, PortableSwitchReachesOnlyWideWords)
{
    // The 64-bit word is native everywhere; forcing the portable build
    // moves only the wide words, and only in decoders built afterwards.
    BuildGuard guard;
    const SurfaceLattice lat(5);
    simd::setActiveWidth(simd::Width::Scalar);
    simd::setPortableForTest(true);
    EXPECT_TRUE(MeshDecoder(lat, ErrorType::Z).batchNative());
    for (simd::Width w : {simd::Width::V256, simd::Width::V512}) {
        simd::setActiveWidth(w);
        simd::setPortableForTest(true);
        const MeshDecoder latched(lat, ErrorType::Z);
        EXPECT_FALSE(latched.batchNative()) << simd::widthName(w);
        simd::setPortableForTest(false);
        EXPECT_FALSE(latched.batchNative()) << simd::widthName(w);
        EXPECT_EQ(MeshDecoder(lat, ErrorType::Z).batchNative(),
                  simd::nativeEngine(w))
            << simd::widthName(w);
    }
}

} // namespace
} // namespace nisqpp
