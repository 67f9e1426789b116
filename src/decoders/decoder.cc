#include "decoders/decoder.hh"

#include <utility>

#include "decoders/workspace.hh"

namespace nisqpp {

void
Decoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                           std::size_t count, Correction *out,
                           TrialWorkspace &ws)
{
    // The vote scratch only grows: the decoder's lattice and type are
    // fixed, so it can never go stale (majorityVote still checks each
    // window against the scratch's family).
    while (voteScratch_.size() < count)
        voteScratch_.emplace_back(*lattice_, type_);
    votePtrs_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        windows[i]->majorityVote(voteScratch_[i]);
        votePtrs_[i] = &voteScratch_[i];
    }
    decodeBatch(votePtrs_.data(), count, out, ws);
}

Correction
Decoder::decode(const Syndrome &syndrome)
{
    TrialWorkspace ws;
    decode(syndrome, ws);
    return std::move(ws.correction);
}

void
Decoder::decode(const Syndrome &syndrome, TrialWorkspace &ws)
{
    const Syndrome *one = &syndrome;
    decodeBatch(&one, 1, &ws.correction, ws);
}

void
Decoder::decodeBatch(const Syndrome *const *syndromes, std::size_t count,
                     TrialWorkspace &ws)
{
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    decodeBatch(syndromes, count, ws.laneCorrections.data(), ws);
}

void
Decoder::decodeWindow(const SyndromeWindow &window, TrialWorkspace &ws)
{
    const SyndromeWindow *one = &window;
    decodeWindowBatch(&one, 1, &ws.correction, ws);
}

void
Decoder::decodeWindowBatch(const SyndromeWindow *const *windows,
                           std::size_t count, TrialWorkspace &ws)
{
    if (ws.laneCorrections.size() < count)
        ws.laneCorrections.resize(count);
    decodeWindowBatch(windows, count, ws.laneCorrections.data(), ws);
}

} // namespace nisqpp
