#include "stream/syndrome_stream.hh"

namespace nisqpp {

SyndromeStream::SyndromeStream(const SurfaceLattice &lattice,
                               const NoiseModel &model, ErrorType type,
                               std::uint64_t seed)
    : model_(model), type_(type), rng_(seed), state_(lattice),
      syndrome_(lattice, type)
{
}

const Syndrome &
SyndromeStream::emit()
{
    model_.sample(rng_, state_);
    extractSyndromeInto(state_, type_, syndrome_);
    model_.flipMeasurements(rng_, syndrome_);
    return syndrome_;
}

void
SyndromeStream::extractPerfectInto(Syndrome &out) const
{
    extractSyndromeInto(state_, type_, out);
}

} // namespace nisqpp
