/**
 * @file
 * Crash-safe checkpoint/resume for deep-tail Monte Carlo sweeps.
 *
 * Production logical-error-rate claims live at PL = 1e-8..1e-10, which
 * means billions of trials per grid cell — runs that take hours to
 * days and *will* be interrupted. The engine's determinism contract
 * makes resume honest: shard results merge in shard-index order from
 * seeds derived only from (cell seed, shard index), so the complete
 * state of a sweep is its *shard ledger* — per cell, the completed
 * ordered-prefix high-water mark plus the partial merge of
 * `MonteCarloResult` up to it. A sweep resumed from that ledger is
 * byte-identical to an uninterrupted one at any thread count.
 *
 * Format: a versioned line-oriented text document with an FNV-64
 * checksum per section (header + each engine invocation). Doubles are
 * serialized as raw IEEE-754 bit patterns, so restored accumulators
 * (Welford cycle statistics, histogram bins, metric counters) are
 * bit-exact. The masked `timing.*`/`sched.*`/`ckpt.*` metric
 * namespaces are excluded by design: they are host-dependent and sit
 * outside the determinism contract.
 *
 * Writes are atomic: serialize to `<path>.tmp`, fsync, rename. A crash
 * mid-write (the fault injector's "tear" mode simulates one) leaves
 * the previous good checkpoint untouched.
 *
 * Fault injection (setWriteFault; on the CLI,
 * NISQPP_FAULT_INJECT=kill-after=N | tear-after=N) deterministically
 * kills the process at the Nth checkpoint write — after the rename
 * for "kill", mid-payload with no rename for "tear" — so
 * `tools/ckpt_torture` can prove the kill→resume→compare loop
 * converges with zero byte drift.
 */

#ifndef NISQPP_CKPT_CHECKPOINT_HH
#define NISQPP_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/monte_carlo.hh"

namespace nisqpp::ckpt {

/** Format version written into (and required from) every file. */
inline constexpr int kCheckpointVersion = 1;

/**
 * Exit code of a run interrupted by SIGINT/SIGTERM after writing its
 * final checkpoint (EX_TEMPFAIL: retry with --resume). Distinct from
 * 0 (done) and 1 (error) so drivers can tell "resume me" apart from
 * "I failed".
 */
inline constexpr int kExitInterrupted = 75;

/** Exit code of a deterministic fault-injection kill (see above). */
inline constexpr int kExitFaultInjected = 87;

/** Default checkpoint cadence: shard completions between writes. */
inline constexpr std::size_t kDefaultCheckpointInterval = 32;

/** Largest accepted --checkpoint-interval / NISQPP_CKPT_INTERVAL. */
inline constexpr std::size_t kMaxCheckpointInterval = 1000000000;

/** A checkpoint could not be written, read, or applied. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Thrown by the engine when a run stops on SIGINT/SIGTERM after
 * persisting its final checkpoint; carries the checkpoint path so the
 * CLI can print the --resume hint and exit with kExitInterrupted.
 */
class InterruptedError : public std::runtime_error
{
  public:
    explicit InterruptedError(std::string path)
        : std::runtime_error("interrupted; checkpoint written to '" +
                             path + "'"),
          path_(std::move(path))
    {
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Ledger of one Monte Carlo grid cell: the contiguous completed-shard
 * prefix [0, frontier) and its ordered merge. `stopped` records that
 * the stop rule was satisfied at the frontier (or every shard ran), so
 * resume schedules nothing past it.
 */
struct CellLedger
{
    std::size_t frontier = 0;
    bool stopped = false;
    MonteCarloResult partial;
};

/**
 * Ledger of one engine invocation (one Engine::runCells call). The
 * config text is the canonical cell-grid description whose FNV-64 is
 * the invocation's config fingerprint; resume refuses to apply a
 * ledger whose fingerprint differs from the run it is fed into.
 */
struct InvocationLedger
{
    std::string configText;
    bool complete = false;
    std::vector<CellLedger> cells;
};

/**
 * Whole-file ledger: the scope tag (the scenario name at the CLI) plus
 * every engine invocation in sequence order. Only the last invocation
 * may be incomplete.
 */
struct CheckpointLedger
{
    std::string scope;
    std::vector<InvocationLedger> invocations;
};

/** When and where the engine checkpoints. */
struct CheckpointPolicy
{
    /** Ledger file; empty disables checkpointing. */
    std::string path;
    /** Write after this many shard completions (>= 1). */
    std::size_t intervalShards = kDefaultCheckpointInterval;
    /**
     * Caller tag folded into the file (the scenario name at the CLI);
     * resume refuses a file written under a different scope.
     */
    std::string scope;

    bool enabled() const { return !path.empty(); }
};

/** @name FNV-64 (the per-section checksum and fingerprint hash) @{ */
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
std::uint64_t fnv64(const void *data, std::size_t len,
                    std::uint64_t seed = kFnvBasis);
std::uint64_t fnv64(const std::string &text,
                    std::uint64_t seed = kFnvBasis);
/** @} */

/** Raw IEEE-754 bits of @p v as 16 lowercase hex digits (bit-exact). */
std::string hexBits(double v);

/** Serialize @p ledger (checksummed sections) onto @p os. */
void serializeLedger(std::ostream &os, const CheckpointLedger &ledger);

/**
 * Parse a ledger; throws CheckpointError with a distinct, actionable
 * message for truncation, checksum mismatch (flipped/torn bytes),
 * unsupported version, and malformed content. Never writes anything.
 */
CheckpointLedger deserializeLedger(std::istream &is);

/**
 * Atomically persist @p ledger to @p path: serialize to `<path>.tmp`,
 * fsync, rename over @p path. Applies the write fault set by
 * setWriteFault (which may terminate the process by design) and then
 * the test write observer. Throws CheckpointError on I/O failure.
 */
void writeCheckpoint(const std::string &path,
                     const CheckpointLedger &ledger);

/** Load and validate @p path; throws CheckpointError (read-only). */
CheckpointLedger loadCheckpoint(const std::string &path);

/** @name Cooperative interruption (SIGINT/SIGTERM → drain + save) @{ */

/**
 * Install SIGINT/SIGTERM handlers that set the interrupt flag (the
 * engine drains in-flight shards, writes a final checkpoint and
 * throws InterruptedError). A second signal restores the default
 * disposition, so repeated Ctrl-C still kills a wedged process.
 */
void installSignalHandlers();

/** True once an interrupt was requested (signal or programmatic). */
bool interruptRequested();

/** Set the interrupt flag programmatically (tests, embedders). */
void requestInterrupt();

/** Clear the flag (tests; a real run exits instead). */
void clearInterrupt();

/** @} */

/** @name Test hooks @{ */

/**
 * Observer invoked after every successful checkpoint write with the
 * process-lifetime write count. Called with engine internals locked:
 * keep it trivial (set a flag; never call back into the engine).
 * Pass nullptr to clear.
 */
void setWriteObserver(std::function<void(std::uint64_t)> observer);

/**
 * A deliberate crash of a checkpoint write, for the torture harness
 * (NISQPP_FAULT_INJECT=kill-after=N|tear-after=N).
 */
struct WriteFault
{
    enum class Mode
    {
        None, ///< no fault injection
        Kill, ///< finish the Nth write, then exit
        Tear  ///< die mid-payload of the Nth write (no rename)
    };
    Mode mode = Mode::None;
    std::uint64_t afterWrites = 0; ///< N: the write that fires
};

/**
 * Arm @p fault for the writes from now on and restart the
 * process-lifetime write count it fires on. `WriteFault{}` disarms.
 */
void setWriteFault(const WriteFault &fault);

/** @} */

} // namespace nisqpp::ckpt

#endif // NISQPP_CKPT_CHECKPOINT_HH
