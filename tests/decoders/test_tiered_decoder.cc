/**
 * @file
 * TieredDecoder contract: threshold 0 is exactly the mesh, an
 * always-escalate threshold is exactly the exact backend, the repair
 * diff is the XOR of the two answers, batched tiered decodes are
 * bit-identical to scalar ones (counters included), and tightened mesh
 * limits force the escalation + disagreement paths deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/mesh_decoder.hh"
#include "decoders/tiered_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "decoders/workspace.hh"
#include "obs/metrics.hh"
#include "noise/noise_model.hh"
#include "surface/logical.hh"

namespace nisqpp {
namespace {

std::unique_ptr<TieredDecoder>
makeTiered(const SurfaceLattice &lat, double threshold)
{
    return std::make_unique<TieredDecoder>(
        lat, ErrorType::Z,
        std::make_unique<MeshDecoder>(lat, ErrorType::Z),
        std::make_unique<UnionFindDecoder>(lat, ErrorType::Z),
        threshold);
}

/** Sample @p count syndromes of a fixed seeded dephasing stream. */
std::vector<Syndrome>
sampleSyndromes(const SurfaceLattice &lat, double p, int count,
                std::uint64_t seed)
{
    const NoiseModel model = NoiseModel::dephasing(p);
    Rng rng(seed);
    std::vector<Syndrome> syndromes;
    syndromes.reserve(count);
    for (int t = 0; t < count; ++t) {
        ErrorState st(lat);
        model.sample(rng, st);
        syndromes.push_back(extractSyndrome(st, ErrorType::Z));
    }
    return syndromes;
}

std::vector<int>
sortedFlips(const Correction &c)
{
    std::vector<int> v = c.dataFlips;
    std::sort(v.begin(), v.end());
    return v;
}

/** Flatten a MetricSet's scalars for whole-set equality checks. */
std::map<std::string, std::uint64_t>
scalarMap(const obs::MetricSet &m)
{
    std::map<std::string, std::uint64_t> out;
    m.forEachScalar([&out](const std::string &name, bool,
                           std::uint64_t value) { out[name] = value; });
    return out;
}

TEST(TieredDecoder, ZeroThresholdIsExactlyTheMesh)
{
    SurfaceLattice lat(5);
    auto tiered = makeTiered(lat, 0.0);
    MeshDecoder mesh(lat, ErrorType::Z);
    TrialWorkspace ws;
    const auto syndromes = sampleSyndromes(lat, 0.08, 100, 0x7172edULL);
    for (const Syndrome &syn : syndromes) {
        tiered->decode(syn, ws);
        const std::vector<int> got = sortedFlips(ws.correction);
        EXPECT_EQ(got, sortedFlips(mesh.decode(syn)));
        ASSERT_NE(tiered->tieredStats(), nullptr);
        EXPECT_FALSE(tiered->tieredStats()->escalated);
    }
    obs::MetricSet m;
    tiered->exportMetrics(m);
    EXPECT_EQ(m.value("decoder.tiered.decodes"), 100u);
    EXPECT_EQ(m.value("decoder.tiered.escalations"), 0u);
    EXPECT_EQ(m.value("decoder.tiered.repairs"), 0u);
}

TEST(TieredDecoder, AlwaysEscalateIsExactlyTheBackend)
{
    SurfaceLattice lat(5);
    auto tiered = makeTiered(lat, 2.0); // > 1: every decode escalates
    UnionFindDecoder uf(lat, ErrorType::Z);
    TrialWorkspace ws, ufWs;
    const auto syndromes = sampleSyndromes(lat, 0.08, 100, 0x7172edULL);
    for (const Syndrome &syn : syndromes) {
        tiered->decode(syn, ws);
        uf.decode(syn, ufWs);
        EXPECT_EQ(sortedFlips(ws.correction), sortedFlips(ufWs.correction));
        ASSERT_NE(tiered->tieredStats(), nullptr);
        EXPECT_TRUE(tiered->tieredStats()->escalated);
    }
    obs::MetricSet m;
    tiered->exportMetrics(m);
    EXPECT_EQ(m.value("decoder.tiered.escalations"), 100u);
    // Both tiers worked and exported their own counters.
    EXPECT_EQ(m.value("decoder.mesh.decodes"), 100u);
    EXPECT_EQ(m.value("decoder.uf.decodes"), 100u);
}

TEST(TieredDecoder, RepairIsTheXorOfProvisionalAndExact)
{
    SurfaceLattice lat(5);
    auto tiered = makeTiered(lat, 2.0);
    MeshDecoder mesh(lat, ErrorType::Z);
    TrialWorkspace ws;
    const auto syndromes = sampleSyndromes(lat, 0.10, 200, 0x9e1aULL);
    int repaired = 0;
    for (const Syndrome &syn : syndromes) {
        tiered->decode(syn, ws);
        const TieredDecodeStats *ts = tiered->tieredStats();
        ASSERT_NE(ts, nullptr);
        // provisional XOR repair == exact: apply all three to a clean
        // state; the result must be error-free under XOR semantics.
        ErrorState scratch(lat);
        mesh.decode(syn).applyTo(scratch, ErrorType::Z); // provisional
        for (int d : ts->repairFlips)
            scratch.flip(ErrorType::Z, d);
        ws.correction.applyTo(scratch, ErrorType::Z); // exact
        bool any = false;
        for (int d = 0; d < lat.numData(); ++d)
            any = any || scratch.has(ErrorType::Z, d);
        EXPECT_FALSE(any);
        repaired += ts->repaired;
        EXPECT_EQ(ts->repaired, !ts->repairFlips.empty());
    }
    // The stream is hot enough that mesh and union-find disagree
    // somewhere; otherwise this test exercises nothing.
    EXPECT_GT(repaired, 0);
}

/**
 * Decode @p batch through one tiered decodeBatch call and one-by-one
 * through a scalar twin, asserting bit-identical corrections,
 * telemetry and counters, with escalations on lane 0 and on at least
 * one later lane (so an exact tier writing into the wrong lane output
 * cannot go unnoticed).
 */
void
expectTieredBatchMatchesScalar(const SurfaceLattice &lat,
                               const std::vector<const Syndrome *> &batch,
                               const std::string &label)
{
    auto batched = makeTiered(lat, 0.7);
    auto scalar = makeTiered(lat, 0.7);
    TrialWorkspace bws, sws;
    batched->decodeBatch(batch.data(), batch.size(), bws);
    std::size_t laterEscalations = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        scalar->decode(*batch[i], sws);
        EXPECT_EQ(sortedFlips(bws.laneCorrections[i]),
                  sortedFlips(sws.correction))
            << label << ": lane " << i;
        ASSERT_NE(batched->tieredStats(i), nullptr) << label;
        EXPECT_EQ(batched->tieredStats(i)->escalated,
                  scalar->tieredStats()->escalated)
            << label << ": lane " << i;
        EXPECT_EQ(batched->tieredStats(i)->repairFlips,
                  scalar->tieredStats()->repairFlips)
            << label << ": lane " << i;
        EXPECT_DOUBLE_EQ(batched->tieredStats(i)->confidence,
                         scalar->tieredStats()->confidence)
            << label << ": lane " << i;
        if (i > 0)
            laterEscalations += batched->tieredStats(i)->escalated;
    }
    EXPECT_TRUE(batched->tieredStats(0)->escalated) << label;
    if (batch.size() > 1) {
        EXPECT_GT(laterEscalations, 0u) << label;
    }
    obs::MetricSet bm, sm;
    batched->exportMetrics(bm);
    scalar->exportMetrics(sm);
    EXPECT_EQ(scalarMap(bm), scalarMap(sm)) << label;
}

TEST(TieredDecoder, BatchMatchesScalarBitForBit)
{
    SurfaceLattice lat(5);
    const auto pool = sampleSyndromes(lat, 0.08, 160, 0xba7cULL);

    // A scalar probe finds the escalating syndromes, so every batch
    // below can lead with one.
    std::vector<std::size_t> escalating;
    {
        auto probe = makeTiered(lat, 0.7);
        TrialWorkspace ws;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            probe->decode(pool[i], ws);
            if (probe->tieredStats()->escalated)
                escalating.push_back(i);
        }
    }
    ASSERT_GE(escalating.size(), 2u);

    // Both sides of the mesh's count selection (one lane, two lanes),
    // then the whole pool rotated so lane 0 escalates.
    const Syndrome *first = &pool[escalating[0]];
    const Syndrome *second = &pool[escalating[1]];
    std::vector<const Syndrome *> all{first};
    for (std::size_t i = 0; i < pool.size(); ++i)
        if (i != escalating[0])
            all.push_back(&pool[i]);
    expectTieredBatchMatchesScalar(lat, {first}, "size 1");
    expectTieredBatchMatchesScalar(lat, {first, second}, "size 2");
    expectTieredBatchMatchesScalar(lat, all, "size 160");
}

TEST(TieredDecoder, TightMeshLimitsForceEscalationAndRepair)
{
    SurfaceLattice lat(5);
    auto tiered = makeTiered(lat, 0.5);
    // Starve the mesh: 2 cycles can't resolve anything non-trivial, so
    // every non-empty syndrome times out, scores zero confidence, and
    // escalates; the mesh's (empty or partial) answer then disagrees
    // with union-find's, forcing the repair path.
    tiered->mesh().setLimitsForTest(2, 1);
    UnionFindDecoder uf(lat, ErrorType::Z);
    TrialWorkspace ws, ufWs;
    const auto syndromes = sampleSyndromes(lat, 0.08, 100, 0x5ca1eULL);
    for (const Syndrome &syn : syndromes) {
        tiered->decode(syn, ws);
        uf.decode(syn, ufWs);
        EXPECT_EQ(sortedFlips(ws.correction),
                  sortedFlips(ufWs.correction));
        if (syn.weight() > 0) {
            EXPECT_TRUE(tiered->tieredStats()->escalated);
            EXPECT_EQ(tiered->tieredStats()->confidence, 0.0);
        }
    }
    obs::MetricSet m;
    tiered->exportMetrics(m);
    EXPECT_GT(m.value("decoder.tiered.escalations"), 0u);
    EXPECT_GT(m.value("decoder.tiered.repairs"), 0u);
    EXPECT_GT(m.value("decoder.mesh.cycles_capped"), 0u);
}

TEST(TieredDecoder, WindowEscalationUsesSpacetimeBackend)
{
    SurfaceLattice lat(3);
    auto tiered = makeTiered(lat, 2.0);
    EXPECT_TRUE(tiered->windowAware());
    UnionFindDecoder uf(lat, ErrorType::Z);

    // One data error at round 0 plus a flipped readout at round 1:
    // majority voting and spacetime matching both see the data error,
    // but only the escalated answer is committed.
    const int w = 3;
    SyndromeWindow win(lat, ErrorType::Z, w + 1);
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    state.flip(ErrorType::Z, 0);
    for (int t = 0; t <= w; ++t) {
        extractSyndromeInto(state, ErrorType::Z, syn);
        if (t == 1 && lat.numAncilla(ErrorType::Z) > 1)
            syn.flip(1);
        win.recordRound(t, syn);
    }

    TrialWorkspace ws, ufWs;
    tiered->decodeWindow(win, ws);
    uf.decodeWindow(win, ufWs);
    EXPECT_EQ(sortedFlips(ws.correction), sortedFlips(ufWs.correction));
    EXPECT_TRUE(tiered->tieredStats()->escalated);

    obs::MetricSet m;
    tiered->exportMetrics(m);
    EXPECT_EQ(m.value("decoder.tiered.window_decodes"), 1u);
}

TEST(TieredDecoder, NameSpellsOutBothTiersAndThreshold)
{
    SurfaceLattice lat(3);
    const std::string name = makeTiered(lat, 0.6)->name();
    EXPECT_NE(name.find("tiered["), std::string::npos);
    EXPECT_NE(name.find("->"), std::string::npos);
    EXPECT_NE(name.find("@0.60"), std::string::npos);
}

} // namespace
} // namespace nisqpp
