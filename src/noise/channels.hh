/**
 * @file
 * Pluggable per-round noise channels (NISQ failure modes beyond the
 * paper's two i.i.d. data channels; cf. Brandhofer et al., "NISQ
 * Computers — How They Fail"). Each data channel samples i.i.d. per
 * data qubit per round; the measurement channel flips measured syndrome
 * bits with rate q. The depolarizing and dephasing channels reproduce
 * the exact per-qubit draw sequence of the closed depolarizing and
 * dephasing models that preceded them, so composing either one alone
 * with q = 0 (NoiseModel::depolarizing(p), NoiseModel::dephasing(p))
 * is bit-identical to the pre-subsystem code.
 *
 * The sampling loops are call-free: Rng::next() is inline. Where every
 * bit costs exactly one draw (dephasing, measurement flips), the loop
 * packs 64 coin results into a word and XORs it in once; the draws and
 * their order are those of the per-qubit loop. The depolarizing, biased
 * and erasure loops stay per qubit, because their extra draws are
 * conditional on the coin.
 */

#ifndef NISQPP_NOISE_CHANNELS_HH
#define NISQPP_NOISE_CHANNELS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/packed_bits.hh"
#include "common/rng.hh"
#include "surface/error_state.hh"

namespace nisqpp {

class Syndrome;

/** One composable per-round data-qubit error channel. */
class NoiseChannel
{
  public:
    virtual ~NoiseChannel() = default;

    /** Multiply one round of fresh errors into @p state. */
    virtual void sampleInto(Rng &rng, ErrorState &state) const = 0;

    /** Per-qubit per-round event rate parameter p. */
    virtual double rate() const = 0;

    virtual std::string name() const = 0;

    /** Whether the channel can set X error components. */
    virtual bool producesX() const = 0;
};

/** Pauli X, Y, Z each with probability p/3 per data qubit. */
class DepolarizingChannel : public NoiseChannel
{
  public:
    explicit DepolarizingChannel(double p);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    std::string name() const override { return "depolarizing"; }
    bool producesX() const override { return true; }

  private:
    double p_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/**
 * Pauli Z with probability p per data qubit (the paper's headline),
 * sampled one word of 64 qubits at a time.
 */
class DephasingChannel : public NoiseChannel
{
  public:
    explicit DephasingChannel(double p);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    std::string name() const override { return "dephasing"; }
    bool producesX() const override { return false; }

  private:
    double p_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/**
 * Biased Pauli channel with bias eta = pZ / (pX + pY): an error occurs
 * with probability p per qubit; it is Z with probability eta/(1+eta),
 * otherwise X or Y with equal probability. eta -> infinity recovers
 * pure dephasing; eta = 1/2 recovers the depolarizing split.
 */
class BiasedEtaChannel : public NoiseChannel
{
  public:
    BiasedEtaChannel(double p, double eta);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    double eta() const { return eta_; }
    std::string name() const override;
    bool producesX() const override { return true; }

  private:
    double p_;
    double eta_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
};

/**
 * Erasure-marking channel: with probability p a data qubit is erased —
 * replaced by a uniformly random Pauli from {I, X, Y, Z} — and its
 * location is flagged in a per-round mark plane that erasure-aware
 * decoders can consume. Marks accumulate across sampleInto calls until
 * clearMarks(); the mark buffer is per-channel-instance state, so one
 * instance must not be shared across threads (every engine shard
 * builds its own model).
 */
class ErasureChannel : public NoiseChannel
{
  public:
    explicit ErasureChannel(double p);

    void sampleInto(Rng &rng, ErrorState &state) const override;
    double rate() const override { return p_; }
    std::string name() const override { return "erasure"; }
    bool producesX() const override { return true; }

    /** Marked locations since the last clearMarks (empty before use). */
    const PackedBits &marks() const { return marks_; }
    void clearMarks() const { marks_.clear(); }

  private:
    double p_;
    std::uint64_t thresh_; ///< Rng::threshold(p), hot-loop coin
    mutable PackedBits marks_;
};

/**
 * Measurement-flip channel: each measured syndrome bit flips
 * independently with probability q per round (faulty readout). q = 0
 * draws nothing, keeping perfect-measurement streams bit-identical.
 * Flips are drawn per ancilla in order and applied one word at a time.
 */
class MeasurementFlipChannel
{
  public:
    explicit MeasurementFlipChannel(double q);

    /** Corrupt one measured round in place. */
    void corrupt(Rng &rng, Syndrome &syndrome) const;

    double rate() const { return q_; }

  private:
    double q_;
    std::uint64_t thresh_; ///< Rng::threshold(q), hot-loop coin
};

} // namespace nisqpp

#endif // NISQPP_NOISE_CHANNELS_HH
