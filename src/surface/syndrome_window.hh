/**
 * @file
 * Multi-round syndrome window for faulty-measurement decoding. With
 * readout noise of rate q a single measured round no longer determines
 * the data error: decoders must consume a spacetime window of
 * consecutive rounds and treat *detection events* — the XOR of
 * consecutive measured rounds, word-packed on PackedBits — as the
 * matchable defects (a data error fires an event that persists until
 * re-measured; a measurement flip fires two events in consecutive
 * rounds at the same ancilla). The window protocol used throughout the
 * repository is w noisy rounds followed by one perfect commit round
 * (recordRound(w, ...) extracted without flips), so every event chain
 * terminates inside the window.
 */

#ifndef NISQPP_SURFACE_SYNDROME_WINDOW_HH
#define NISQPP_SURFACE_SYNDROME_WINDOW_HH

#include <vector>

#include "common/packed_bits.hh"
#include "surface/lattice.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

/**
 * Word-packed measurement rounds + derived detection events of one
 * decode window for one ancilla family. Reusable: reset() clears the
 * rounds without shedding buffer capacity.
 */
class SyndromeWindow
{
  public:
    /**
     * @param lattice Lattice under test (shared, read-only).
     * @param type    Error family whose measurements are windowed.
     * @param rounds  Number of measurement rounds in the window
     *                (noisy rounds + the final commit round).
     */
    SyndromeWindow(const SurfaceLattice &lattice, ErrorType type,
                   int rounds);

    const SurfaceLattice &lattice() const { return *lattice_; }
    ErrorType type() const { return type_; }
    int rounds() const { return rounds_; }
    int numAncilla() const { return numAncilla_; }

    /** Clear every round and the baseline, keeping capacity. */
    void reset();

    /**
     * Reference frame of round 0's detection events: the perfect
     * syndrome of the state carried into this window (all-zero after
     * reset, matching a freshly cleared state).
     */
    void setBaseline(const Syndrome &reference);

    /**
     * Record measured round @p t (0-based, ascending). Detection
     * events of round t are derived immediately as measured[t] XOR
     * measured[t-1] (XOR the baseline for t = 0).
     */
    void recordRound(int t, const Syndrome &measured);

    /** Rounds recorded so far (recordRound must fill 0..rounds-1). */
    int recorded() const { return recorded_; }

    /** Detection event bits of round @p t. */
    const PackedBits &eventBits(int t) const;

    bool event(int t, int a) const { return eventBits(t).get(a); }

    /**
     * Invoke @p f(int t, int a) for every detection event, ascending
     * in t then a.
     */
    template <typename F>
    void
    forEachEvent(F &&f) const
    {
        for (int t = 0; t < recorded_; ++t)
            events_[t].forEachSet([&f, t](int a) { f(t, a); });
    }

    /**
     * Round-majority vote: set bit a of @p out when ancilla a measured
     * hot in more than half of the recorded rounds (ties vote cold).
     * The fallback reduction for decoders without a spacetime path.
     */
    void majorityVote(Syndrome &out) const;

  private:
    const SurfaceLattice *lattice_;
    ErrorType type_;
    int rounds_;
    int numAncilla_;
    int recorded_ = 0;
    PackedBits baseline_;
    std::vector<PackedBits> measured_;
    std::vector<PackedBits> events_;
};

} // namespace nisqpp

#endif // NISQPP_SURFACE_SYNDROME_WINDOW_HH
