/**
 * @file
 * The noise layer: one per-round data-qubit channel of a closed set of
 * kinds (NISQ failure modes beyond the paper's dephasing; cf.
 * Brandhofer et al., "NISQ Computers — How They Fail") plus
 * measurement flips of rate q. A `NoiseSpec` value describes a model
 * shape (kind, bias, q) without the physical rate p, so the experiment
 * engine can carry noise configuration through `CellSpec`/`SweepConfig`
 * by value and instantiate per-shard models deterministically.
 */

#ifndef NISQPP_NOISE_NOISE_MODEL_HH
#define NISQPP_NOISE_NOISE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/packed_bits.hh"
#include "common/rng.hh"
#include "surface/error_state.hh"

namespace nisqpp {

class Syndrome;

/** Named channel kinds of the noise layer. */
enum class NoiseKind : unsigned char
{
    Dephasing,    ///< Z with probability p (the paper's headline)
    Depolarizing, ///< X, Y, Z each with probability p/3
    Biased,       ///< bias-eta Pauli channel
    Erasure,      ///< erasure-marking channel
};

/**
 * Value-type description of a noise model, minus the physical rate p
 * (the sweep axis). Defaults reproduce the legacy configuration:
 * pure dephasing with perfect measurement.
 */
struct NoiseSpec
{
    NoiseKind kind = NoiseKind::Dephasing;
    double eta = 10.0;  ///< bias, used by NoiseKind::Biased only
    double q = 0.0;     ///< measurement flip rate; 0 = perfect readout

    /**
     * Value-chained measurement noise, so the flip rate is always
     * named at the call site: NoiseSpec::dephasing().withQ(0.02)
     * (the factories deliberately take no bare rate argument — the
     * physical rate p is the sweep axis, supplied at model
     * instantiation).
     */
    NoiseSpec
    withQ(double flipRate) const
    {
        NoiseSpec out = *this;
        out.q = flipRate;
        return out;
    }

    static NoiseSpec dephasing();
    static NoiseSpec depolarizing();
    static NoiseSpec biased(double eta);
    static NoiseSpec erasure();
};

/** Display name of a channel kind ("dephasing", "biased", ...). */
std::string noiseKindName(NoiseKind kind);

/** All channel kinds, in presentation order (noise_zoo iterates it). */
const std::vector<NoiseKind> &noiseKindRegistry();

/**
 * One kind's data channel at rate p plus measurement flips at rate q.
 * Each kind samples i.i.d. per data qubit per round:
 * - Dephasing: Z with probability p;
 * - Depolarizing: X, Y, Z each with probability p/3;
 * - Biased: an error with probability p, Z with probability
 *   eta/(1+eta), else X or Y evenly (eta -> infinity recovers
 *   dephasing, eta = 1/2 the depolarizing split);
 * - Erasure: with probability p the qubit is replaced by a uniformly
 *   random Pauli from {I, X, Y, Z} and flagged in a mark plane that
 *   erasure-aware decoders can consume.
 *
 * The sampling loops are call-free: Rng::next() is inline. Where every
 * bit costs exactly one draw (dephasing, measurement flips), the loop
 * packs 64 coin results into a word and XORs it in once; the draws and
 * their order are those of the per-qubit loop. The other kinds' loops
 * stay per qubit, because their extra draws are conditional on the
 * coin. Rates p <= 0 draw nothing, and neither do flips at q = 0, so
 * perfect-measurement streams stay bit-identical.
 *
 * Erasure marks accumulate across sample() calls until
 * clearErasureMarks(); they are per-instance state, so one instance
 * must not be shared across threads (every engine shard builds its
 * own model).
 */
class NoiseModel
{
  public:
    /** @name Named factories @{ */
    static NoiseModel depolarizing(double p, double q = 0.0);
    static NoiseModel dephasing(double p, double q = 0.0);
    static NoiseModel biased(double p, double eta, double q = 0.0);
    static NoiseModel erasure(double p, double q = 0.0);
    /** @} */

    /** Instantiate @p spec at physical rate @p p. */
    static NoiseModel fromSpec(const NoiseSpec &spec, double p);

    /** Multiply one round of fresh data errors into @p state. */
    void sample(Rng &rng, ErrorState &state) const;

    /**
     * Flip each measured syndrome bit of @p syndrome independently
     * with probability q, drawing per ancilla in order.
     */
    void flipMeasurements(Rng &rng, Syndrome &syndrome) const;

    /** Physical error rate parameter p. */
    double physicalRate() const { return p_; }

    /** Measurement (readout) flip rate q; 0 = perfect measurement. */
    double measurementFlipRate() const { return q_; }

    std::string name() const;

    /**
     * Whether the channel can produce X error components (callers use
     * this to decide if an X-family decoder is required).
     */
    bool producesX() const { return kind_ != NoiseKind::Dephasing; }

    /** Erased qubits since the last clear (erasure kind only). @{ */
    const PackedBits &erasureMarks() const { return marks_; }
    void clearErasureMarks() const { marks_.clear(); }
    /** @} */

  private:
    NoiseModel(NoiseKind kind, double p, double eta, double q);

    NoiseKind kind_;
    double p_;
    double eta_; ///< bias, NoiseKind::Biased only
    double q_;
    std::uint64_t pThresh_; ///< Rng::threshold(p), hot-loop coin
    std::uint64_t qThresh_; ///< Rng::threshold(q), hot-loop coin
    mutable PackedBits marks_;
};

} // namespace nisqpp

#endif // NISQPP_NOISE_NOISE_MODEL_HH
