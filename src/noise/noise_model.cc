#include "noise/noise_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/table.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

NoiseSpec
NoiseSpec::dephasing()
{
    return {NoiseKind::Dephasing, 10.0, 0.0};
}

NoiseSpec
NoiseSpec::depolarizing()
{
    return {NoiseKind::Depolarizing, 10.0, 0.0};
}

NoiseSpec
NoiseSpec::biased(double eta)
{
    return {NoiseKind::Biased, eta, 0.0};
}

NoiseSpec
NoiseSpec::erasure()
{
    return {NoiseKind::Erasure, 10.0, 0.0};
}

std::string
noiseKindName(NoiseKind kind)
{
    switch (kind) {
      case NoiseKind::Dephasing: return "dephasing";
      case NoiseKind::Depolarizing: return "depolarizing";
      case NoiseKind::Biased: return "biased";
      case NoiseKind::Erasure: return "erasure";
    }
    panic("noiseKindName: unknown kind");
}

const std::vector<NoiseKind> &
noiseKindRegistry()
{
    static const std::vector<NoiseKind> kinds{
        NoiseKind::Dephasing, NoiseKind::Depolarizing,
        NoiseKind::Biased, NoiseKind::Erasure};
    return kinds;
}

namespace {

/**
 * Draw one coin(@p thresh) per bit 0..n-1, in order, packing each run
 * of 64 into a word handed to @p apply(w, bits) once. The draws are
 * exactly those of a per-bit `if (rng.coin(thresh))` loop; only the
 * per-bit write becomes one XOR per word. Bits at or above n stay zero.
 */
template <typename Apply>
void
forEachCoinWord(Rng &rng, std::uint64_t thresh, int n, const Apply &apply)
{
    for (int base = 0; base < n; base += 64) {
        const int bitsHere = std::min(64, n - base);
        PackedBits::Word word = 0;
        for (int b = 0; b < bitsHere; ++b)
            word |= PackedBits::Word{rng.coin(thresh)} << b;
        apply(static_cast<std::size_t>(base / 64), word);
    }
}

void
sampleDepolarizing(Rng &rng, double p, std::uint64_t thresh,
                   ErrorState &state)
{
    const int n = state.lattice().numData();
    if (p <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    for (int q = 0; q < n; ++q) {
        if (p < 1.0 && !rng.coin(thresh))
            continue;
        switch (rng.uniformInt(3)) {
          case 0: state.inject(q, Pauli::X); break;
          case 1: state.inject(q, Pauli::Y); break;
          default: state.inject(q, Pauli::Z); break;
        }
    }
}

void
sampleDephasing(Rng &rng, double p, std::uint64_t thresh,
                ErrorState &state)
{
    const int n = state.lattice().numData();
    if (p <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    if (p >= 1.0) {
        for (int q = 0; q < n; ++q)
            state.inject(q, Pauli::Z);
        return;
    }
    forEachCoinWord(rng, thresh, n,
                    [&state](std::size_t w, PackedBits::Word bits) {
                        state.xorWord(ErrorType::Z, w, bits);
                    });
}

void
sampleBiased(Rng &rng, double p, double eta, std::uint64_t thresh,
             ErrorState &state)
{
    const int n = state.lattice().numData();
    const double z_share = eta / (1.0 + eta);
    if (p <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    for (int q = 0; q < n; ++q) {
        if (p < 1.0 && !rng.coin(thresh))
            continue;
        if (rng.bernoulli(z_share))
            state.inject(q, Pauli::Z);
        else
            state.inject(q, rng.uniformInt(2) == 0 ? Pauli::X
                                                   : Pauli::Y);
    }
}

void
sampleErasure(Rng &rng, double p, std::uint64_t thresh,
              ErrorState &state, PackedBits &marks)
{
    const int n = state.lattice().numData();
    if (marks.size() != static_cast<std::size_t>(n))
        marks.resize(n);
    if (p <= 0.0)
        return; // bernoulli(p <= 0) consumes no draw; neither may we
    for (int q = 0; q < n; ++q) {
        if (p < 1.0 && !rng.coin(thresh))
            continue;
        marks.set(q, true);
        switch (rng.uniformInt(4)) {
          case 0: break; // erased into I: marked, no Pauli kick
          case 1: state.inject(q, Pauli::X); break;
          case 2: state.inject(q, Pauli::Y); break;
          default: state.inject(q, Pauli::Z); break;
        }
    }
}

} // namespace

NoiseModel::NoiseModel(NoiseKind kind, double p, double eta, double q)
    : kind_(kind), p_(p), eta_(eta), q_(q)
{
    require(p >= 0.0 && p <= 1.0, "NoiseModel: p out of [0,1]");
    require(kind != NoiseKind::Biased || eta > 0.0,
            "NoiseModel: eta must be positive");
    require(q >= 0.0 && q <= 1.0, "NoiseModel: q out of [0,1]");
    pThresh_ = Rng::threshold(p);
    qThresh_ = Rng::threshold(q);
}

void
NoiseModel::sample(Rng &rng, ErrorState &state) const
{
    switch (kind_) {
      case NoiseKind::Dephasing:
        sampleDephasing(rng, p_, pThresh_, state);
        return;
      case NoiseKind::Depolarizing:
        sampleDepolarizing(rng, p_, pThresh_, state);
        return;
      case NoiseKind::Biased:
        sampleBiased(rng, p_, eta_, pThresh_, state);
        return;
      case NoiseKind::Erasure:
        sampleErasure(rng, p_, pThresh_, state, marks_);
        return;
    }
}

void
NoiseModel::flipMeasurements(Rng &rng, Syndrome &syndrome) const
{
    if (q_ <= 0.0)
        return;
    const int n = syndrome.size();
    if (q_ >= 1.0) { // bernoulli(q >= 1) consumes no draw
        for (int a = 0; a < n; ++a)
            syndrome.flip(a);
        return;
    }
    forEachCoinWord(rng, qThresh_, n,
                    [&syndrome](std::size_t w, PackedBits::Word bits) {
                        syndrome.xorWord(w, bits);
                    });
}

std::string
NoiseModel::name() const
{
    std::string out = noiseKindName(kind_);
    if (kind_ == NoiseKind::Biased)
        out += "(eta=" + TablePrinter::num(eta_, 3) + ")";
    if (q_ > 0.0)
        out += "+meas(q=" + TablePrinter::num(q_, 4) + ")";
    return out;
}

NoiseModel
NoiseModel::depolarizing(double p, double q)
{
    return {NoiseKind::Depolarizing, p, 0.0, q};
}

NoiseModel
NoiseModel::dephasing(double p, double q)
{
    return {NoiseKind::Dephasing, p, 0.0, q};
}

NoiseModel
NoiseModel::biased(double p, double eta, double q)
{
    return {NoiseKind::Biased, p, eta, q};
}

NoiseModel
NoiseModel::erasure(double p, double q)
{
    return {NoiseKind::Erasure, p, 0.0, q};
}

NoiseModel
NoiseModel::fromSpec(const NoiseSpec &spec, double p)
{
    switch (spec.kind) {
      case NoiseKind::Dephasing: return dephasing(p, spec.q);
      case NoiseKind::Depolarizing: return depolarizing(p, spec.q);
      case NoiseKind::Biased: return biased(p, spec.eta, spec.q);
      case NoiseKind::Erasure: return erasure(p, spec.q);
    }
    panic("NoiseModel::fromSpec: unknown kind");
}

} // namespace nisqpp
