/**
 * @file
 * Steady-state decoding is allocation-free: once a decoder and its
 * TrialWorkspace have seen a set of inputs, decoding those inputs
 * again performs no heap allocation, for every decoder family plus the
 * tiered decoder, on the scalar, lane-batch and window paths.
 *
 * This binary replaces global operator new/delete in every form
 * (plain, sized, align_val_t, nothrow; the SIMD lane words use the
 * aligned forms). The replacements forward to malloc / aligned_alloc /
 * free and count allocations only while a thread-local guard is set,
 * so the rest of the suite in this binary is unaffected.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/mesh_config.hh"
#include "decoders/workspace.hh"
#include "noise/noise_model.hh"
#include "sim/experiment.hh"
#include "sim/monte_carlo.hh"
#include "surface/error_state.hh"
#include "surface/syndrome.hh"
#include "surface/syndrome_window.hh"

namespace {

thread_local bool tCounting = false;
thread_local std::uint64_t tAllocations = 0;

void *
countedAlloc(std::size_t size, std::size_t align, bool nothrow)
{
    if (tCounting)
        ++tAllocations;
    if (size == 0)
        size = 1;
    void *p;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else {
        // aligned_alloc wants a size that is a multiple of the alignment.
        p = std::aligned_alloc(align, (size + align - 1) / align * align);
    }
    if (!p && !nothrow)
        throw std::bad_alloc();
    return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, kDefaultAlign, false); }
void *operator new[](std::size_t n) { return countedAlloc(n, kDefaultAlign, false); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a), false);
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a), false);
}
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, kDefaultAlign, true);
}
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, kDefaultAlign, true);
}
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a), true);
}
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a), true);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace nisqpp {
namespace {

constexpr int kDistance = 9;
constexpr int kScalarDecodes = 512;
constexpr std::size_t kLanes = 512;
constexpr int kWindows = 64;
constexpr int kNoisyRounds = 4;

/** Heap allocations made by @p f on this thread. */
template <typename F>
std::uint64_t
allocationsDuring(F &&f)
{
    tAllocations = 0;
    tCounting = true;
    f();
    tCounting = false;
    return tAllocations;
}

/** Fixed d = 9, p = 5% depolarizing Z syndromes. */
std::vector<Syndrome>
sampleSyndromes(const SurfaceLattice &lat, std::size_t count)
{
    const NoiseModel model = NoiseModel::depolarizing(0.05);
    Rng rng(0xa110cULL);
    ErrorState state(lat);
    std::vector<Syndrome> out;
    for (std::size_t i = 0; i < count; ++i) {
        state.clear();
        model.sample(rng, state);
        out.push_back(extractSyndrome(state, ErrorType::Z));
    }
    return out;
}

/**
 * Fixed windows of kNoisyRounds noisy rounds (p = q = 2%: fresh data
 * errors and readout flips every round) plus a perfect commit round.
 */
std::vector<SyndromeWindow>
sampleWindows(const SurfaceLattice &lat)
{
    const NoiseModel model = NoiseModel::dephasing(0.02);
    Rng rng(0x3e11ULL);
    ErrorState state(lat);
    Syndrome syn(lat, ErrorType::Z);
    std::vector<SyndromeWindow> out;
    for (int i = 0; i < kWindows; ++i) {
        SyndromeWindow win(lat, ErrorType::Z, kNoisyRounds + 1);
        state.clear();
        for (int t = 0; t < kNoisyRounds; ++t) {
            model.sample(rng, state);
            extractSyndromeInto(state, ErrorType::Z, syn);
            for (int a = 0; a < syn.size(); ++a)
                if (rng.bernoulli(0.02))
                    syn.flip(a);
            win.recordRound(t, syn);
        }
        extractSyndromeInto(state, ErrorType::Z, syn);
        win.recordRound(kNoisyRounds, syn);
        out.push_back(std::move(win));
    }
    return out;
}

/** Every registered family, plus tiered (mesh escalating to union-find). */
std::vector<std::string>
familyNames()
{
    std::vector<std::string> names;
    for (const DecoderFamily &f : decoderFamilies())
        names.push_back(f.name);
    names.push_back("tiered");
    return names;
}

std::unique_ptr<Decoder>
makeDecoder(const std::string &name, const SurfaceLattice &lat)
{
    if (name == "tiered")
        return tieredDecoderFactory(MeshConfig::finalDesign(),
                                    "union_find", 0.5)(lat, ErrorType::Z);
    return decoderFamilies()[decoderFamilyIndex(name)].factory(
        lat, ErrorType::Z);
}

/** The tiered inputs must reach the escalation path to pin it. */
void
expectEscalatedIfTiered(const Decoder &dec, std::size_t lanes)
{
    if (dec.tieredStats() == nullptr)
        return;
    bool escalated = false;
    for (std::size_t i = 0; i < lanes; ++i)
        escalated = escalated || dec.tieredStats(i)->escalated;
    EXPECT_TRUE(escalated) << "no tiered lane escalated";
}

class AllocFree : public ::testing::TestWithParam<std::string>
{
  protected:
    SurfaceLattice lat_{kDistance};
    std::unique_ptr<Decoder> dec_ = makeDecoder(GetParam(), lat_);
    TrialWorkspace ws_;
};

TEST_P(AllocFree, ScalarDecode)
{
    const auto syns = sampleSyndromes(lat_, kScalarDecodes);
    for (const Syndrome &s : syns)
        dec_->decode(s, ws_);
    const std::uint64_t n = allocationsDuring([&] {
        for (const Syndrome &s : syns)
            dec_->decode(s, ws_);
    });
    EXPECT_EQ(n, 0u) << "over " << kScalarDecodes << " scalar decodes";
}

TEST_P(AllocFree, LaneBatch)
{
    const auto syns = sampleSyndromes(lat_, kLanes);
    std::vector<const Syndrome *> ptrs;
    for (const Syndrome &s : syns)
        ptrs.push_back(&s);
    dec_->decodeBatch(ptrs.data(), kLanes, ws_);
    const std::uint64_t n = allocationsDuring(
        [&] { dec_->decodeBatch(ptrs.data(), kLanes, ws_); });
    EXPECT_EQ(n, 0u) << "over one " << kLanes << "-lane batch";
    expectEscalatedIfTiered(*dec_, kLanes);
}

TEST_P(AllocFree, Window)
{
    const auto windows = sampleWindows(lat_);
    for (const SyndromeWindow &w : windows)
        dec_->decodeWindow(w, ws_);
    const std::uint64_t n = allocationsDuring([&] {
        for (const SyndromeWindow &w : windows)
            dec_->decodeWindow(w, ws_);
    });
    EXPECT_EQ(n, 0u) << "over " << kWindows << " window decodes";
}

/**
 * Fixed-length d = 9, p = 5% dephasing lifetimes, claimed in turn and
 * kept as they finish (into slots reserved up front).
 */
class Lifetimes final : public LifetimeSource
{
  public:
    Lifetimes(std::size_t count, std::size_t rounds)
        : count_(count), rounds_(rounds), results_(count)
    {}

    bool
    claim(LifetimeLane &lane) override
    {
        if (next_ == count_)
            return false;
        lane.model = &model_;
        lane.seed = 0x11fe + next_;
        lane.rule = {rounds_, rounds_, ~std::size_t{0}};
        lane.tag = next_++;
        return true;
    }

    void
    finish(std::size_t tag, MonteCarloResult result) override
    {
        results_[tag] = std::move(result);
    }

  private:
    const NoiseModel model_ = NoiseModel::dephasing(0.05);
    std::size_t count_;
    std::size_t rounds_;
    std::size_t next_ = 0;
    std::vector<MonteCarloResult> results_;
};

TEST(AllocFreeLifetimes, LaneRoundsAllocateNothing)
{
    // A mesh lane pump running lifetimes side by side allocates per
    // lifetime (its result) but nothing per round: once warm, a run
    // of 8-round lifetimes and one of 64-round lifetimes allocate
    // exactly the same.
    const SurfaceLattice lat(kDistance);
    const auto dec = makeDecoder("sfq_mesh", lat);
    TrialWorkspace ws;
    LifetimeSimulator sim(lat, *dec, nullptr, &ws);
    sim.setLifetimeMode(true);
    const std::size_t lanes = sim.lifetimeLanes();
    ASSERT_GT(lanes, 1u);
    const auto run = [&](std::size_t rounds) {
        Lifetimes source(lanes, rounds);
        return allocationsDuring([&] { sim.runLifetimes(source); });
    };
    run(64);
    const std::uint64_t shortRun = run(8);
    EXPECT_EQ(run(64), shortRun) << "over " << lanes << " lifetimes";
}

INSTANTIATE_TEST_SUITE_P(
    Families, AllocFree, ::testing::ValuesIn(familyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace nisqpp
