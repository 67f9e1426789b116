/**
 * @file
 * Deterministic metric registry: named counters, max-gauges, and
 * integer-binned histograms with hierarchical dotted names
 * (`engine.trials`, `decoder.uf.growth_rounds`, `stream.queue.spills`).
 *
 * A MetricSet is a value type with merge semantics mirroring
 * MonteCarloResult::merge: counters add, gauges take the max, and
 * histograms add bin-wise. All three operations are commutative and
 * associative, so per-shard metric sets folded through the engine's
 * ordered prefix merge produce byte-identical aggregates at any
 * thread count. The only non-deterministic metrics are the ones in
 * the masked namespaces (`timing.*` wall-clock spans, `sched.*`
 * engine scheduling counters, and `ckpt.*` checkpoint bookkeeping,
 * which depends on when the run was interrupted); maskedName() is the
 * single authority on that split, and run reports emit masked names in
 * a separate section that goldens and determinism checks ignore.
 */

#ifndef NISQPP_OBS_METRICS_HH
#define NISQPP_OBS_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "common/stats.hh"

namespace nisqpp::obs {

/**
 * True when @p name belongs to a namespace excluded from the
 * deterministic counter contract: `timing.*` (derived from the host
 * wall clock), `sched.*` (engine scheduling facts such as how many
 * simulators the workers built, which legitimately vary run to run
 * at N > 1 threads), and
 * `ckpt.*` (checkpoint bookkeeping, which depends on when and how
 * often the run was interrupted).
 */
bool maskedName(const std::string &name);

/**
 * A mergeable bag of named metrics. Not thread-safe: each shard owns
 * its set and the engine folds them on the collecting thread, exactly
 * like MonteCarloResult.
 */
class MetricSet
{
  public:
    /** Distribution metric: an integer histogram plus the raw sum. */
    struct HistogramEntry
    {
        Histogram hist{0};
        std::uint64_t sum = 0;
    };

    /** Bump counter @p name by @p delta (creates it at zero). */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Raise gauge @p name to @p value if larger (creates at 0). */
    void maxGauge(const std::string &name, std::uint64_t value);

    /**
     * Record one observation into histogram @p name. The histogram is
     * created on first use with bins [0, maxValue] plus an overflow
     * bin; later calls must pass the same @p maxValue.
     */
    void record(const std::string &name, std::size_t value,
                std::size_t maxValue);

    /**
     * Fold an externally accumulated histogram (plus its raw sum of
     * observations) into histogram @p name — the bulk counterpart of
     * record() used by decoders flushing per-shard work histograms.
     */
    void mergeHistogram(const std::string &name, const Histogram &hist,
                        std::uint64_t sum);

    /** Fold @p other in: counters add, gauges max, histograms add. */
    void merge(const MetricSet &other);

    /** Counter or gauge value; 0 when absent. */
    std::uint64_t value(const std::string &name) const;

    /** Histogram entry, or nullptr when absent. */
    const HistogramEntry *histogram(const std::string &name) const;

    bool empty() const
    {
        return scalars_.empty() && histograms_.empty();
    }

    /**
     * Emit the counters and gauges whose maskedName() equals
     * @p masked as one flat JSON object, keys in sorted order: the
     * run report's "counters" (masked == false) and "timing"
     * (masked == true) sections.
     */
    void writeScalarsJson(std::ostream &os, bool masked) const;

    /**
     * Emit every non-masked histogram as a JSON object keyed by
     * metric name, each with count/sum/overflow and sparse bins.
     */
    void writeHistogramsJson(std::ostream &os) const;

    /**
     * Visit every counter and gauge in sorted-name order (the
     * checkpoint serializer; masked names are the caller's problem).
     */
    void forEachScalar(
        const std::function<void(const std::string &name, bool isGauge,
                                 std::uint64_t value)> &fn) const;

    /** Visit every histogram entry in sorted-name order. */
    void forEachHistogram(
        const std::function<void(const std::string &name,
                                 const HistogramEntry &entry)> &fn) const;

  private:
    enum class Kind { Counter, Gauge };

    struct Scalar
    {
        Kind kind = Kind::Counter;
        std::uint64_t value = 0;
    };

    std::map<std::string, Scalar> scalars_;
    std::map<std::string, HistogramEntry> histograms_;
};

} // namespace nisqpp::obs

#endif // NISQPP_OBS_METRICS_HH
