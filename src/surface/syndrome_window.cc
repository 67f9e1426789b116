#include "surface/syndrome_window.hh"

#include "common/logging.hh"

namespace nisqpp {

SyndromeWindow::SyndromeWindow(const SurfaceLattice &lattice,
                               ErrorType type, int rounds)
    : lattice_(&lattice), type_(type), rounds_(rounds),
      numAncilla_(lattice.numAncilla(type)),
      baseline_(static_cast<std::size_t>(numAncilla_))
{
    require(rounds >= 1, "SyndromeWindow: rounds must be >= 1");
    measured_.reserve(rounds);
    events_.reserve(rounds);
    for (int t = 0; t < rounds; ++t) {
        measured_.emplace_back(static_cast<std::size_t>(numAncilla_));
        events_.emplace_back(static_cast<std::size_t>(numAncilla_));
    }
}

void
SyndromeWindow::reset()
{
    recorded_ = 0;
    baseline_.clear();
    for (int t = 0; t < rounds_; ++t) {
        measured_[t].clear();
        events_[t].clear();
    }
}

void
SyndromeWindow::setBaseline(const Syndrome &reference)
{
    require(recorded_ == 0,
            "SyndromeWindow: baseline must precede the first round");
    require(reference.type() == type_ &&
                static_cast<int>(reference.bits().size()) == numAncilla_,
            "SyndromeWindow: baseline family mismatch");
    baseline_ = reference.bits();
}

void
SyndromeWindow::recordRound(int t, const Syndrome &measured)
{
    require(t == recorded_ && t < rounds_,
            "SyndromeWindow: rounds must be recorded 0..rounds-1 in "
            "order");
    require(measured.type() == type_ &&
                static_cast<int>(measured.bits().size()) == numAncilla_,
            "SyndromeWindow: round family mismatch");
    measured_[t] = measured.bits();
    events_[t] = measured.bits();
    events_[t].xorWith(t == 0 ? baseline_ : measured_[t - 1]);
    ++recorded_;
}

const PackedBits &
SyndromeWindow::eventBits(int t) const
{
    require(t >= 0 && t < recorded_,
            "SyndromeWindow: round not recorded");
    return events_[t];
}

void
SyndromeWindow::majorityVote(Syndrome &out) const
{
    require(out.type() == type_ && out.size() == numAncilla_,
            "SyndromeWindow: majority output family mismatch");
    require(recorded_ > 0, "SyndromeWindow: no rounds recorded");
    out.clear();
    for (int a = 0; a < numAncilla_; ++a) {
        int hot = 0;
        for (int t = 0; t < recorded_; ++t)
            hot += measured_[t].get(a);
        if (2 * hot > recorded_)
            out.set(a, true);
    }
}

} // namespace nisqpp
