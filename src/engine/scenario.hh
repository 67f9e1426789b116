/**
 * @file
 * Named experiment scenarios: every paper figure/table the repository
 * reproduces is registered here by name, runnable through the parallel
 * engine with uniform flags. The nisqpp_run CLI dispatches any scenario
 * (`--scenario fig10_final --threads 4 --format csv`); each bench
 * binary is a thin wrapper pinned to one scenario name.
 */

#ifndef NISQPP_ENGINE_SCENARIO_HH
#define NISQPP_ENGINE_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "engine/sweep.hh"
#include "faults/fault_plan.hh"
#include "obs/metrics.hh"

namespace nisqpp {

/** Rendering mode for scenario output. */
enum class OutputFormat
{
    Table, ///< aligned tables with narrative notes (default)
    Csv,   ///< tables as CSV, notes suppressed
    Json,  ///< one JSON document with every table, notes suppressed
};

/** Parsed command-line options shared by nisqpp_run and the benches. */
struct RunOptions
{
    int threads = 1;
    std::size_t shardTrials = 512;
    /** Trial-budget multiplier (--trials-scale, NISQPP_TRIALS). */
    double trialsScale = 1.0;
    std::uint64_t seed = 0;
    bool seedSet = false; ///< --seed given: overrides scenario defaults
    OutputFormat format = OutputFormat::Table;
    /**
     * Trials per decode group of the mesh and tiered decoders (--batch,
     * NISQPP_BATCH; EngineOptions::batchLanes). Other decoders decode
     * one trial at a time. Aggregates are byte-identical either way.
     */
    std::size_t batchLanes = 1;
    /** --metrics-out FILE: write the machine-readable run report. */
    std::string metricsOut;
    /** --trace-out FILE: write a chrome://tracing event dump. */
    std::string traceOut;
    /** --checkpoint FILE: periodically persist the sweep ledger. */
    std::string checkpointPath;
    /** --resume FILE: restore a ledger (and keep checkpointing to it
     *  unless --checkpoint names a different file). */
    std::string resumePath;
    /** --checkpoint-interval N / NISQPP_CKPT_INTERVAL: shard
     *  completions between periodic writes. */
    std::size_t checkpointInterval = ckpt::kDefaultCheckpointInterval;
    bool checkpointIntervalSet = false; ///< flag given explicitly
    /**
     * --escalate-threshold X in [0, 1]: pin the tiered_decode
     * scenario to one confidence threshold instead of its default
     * sweep. Negative = not given.
     */
    double escalateThreshold = -1.0;
    /**
     * --fault-drop/--fault-corrupt/--fault-dup/--fault-delay/
     * --fault-stall/--fault-fail/--fault-seed (or the
     * NISQPP_STREAM_FAULTS env twin): pin the fault_sweep scenario to
     * one fault operating point instead of its default rate grid.
     * faultGiven marks that any of them was set.
     */
    faults::FaultSpec faultSpec;
    bool faultGiven = false;
    /**
     * --deadline-ns X > 0: pin fault_sweep's deadline policy to this
     * per-round decode budget. 0 = not given (scenario default).
     */
    double deadlineNs = 0.0;
};

/**
 * Everything a scenario needs: the engine, scaling/seed policy and the
 * format-aware output channel. Tables go through table() so one
 * scenario body serves all three formats.
 */
class ScenarioContext
{
  public:
    ScenarioContext(const RunOptions &options, std::ostream &os);

    /**
     * The sharded engine, constructed on first use. It starts worker
     * threads only inside its runCells/runJobs calls (runCell and
     * runSweep each make one runCells call).
     */
    Engine &engine();
    OutputFormat format() const { return options_.format; }

    /** Scenario's master seed: --seed when given, else @p fallback. */
    std::uint64_t seed(std::uint64_t fallback) const;

    /** Scale a stop rule by the run's trial multiplier. */
    StopRule scaled(const StopRule &rule) const;

    /** --escalate-threshold when given, else negative. */
    double escalateThreshold() const
    {
        return options_.escalateThreshold;
    }

    /** --fault-* (or NISQPP_STREAM_FAULTS) spec when given, else null. */
    const faults::FaultSpec *
    faultOverride() const
    {
        return options_.faultGiven ? &options_.faultSpec : nullptr;
    }

    /** --deadline-ns when given, else 0 (use scenario defaults). */
    double deadlineNs() const { return options_.deadlineNs; }

    /** Narrative line; printed in table mode only. */
    void note(const std::string &line);

    /** Emit one titled table in the selected format. */
    void table(const std::string &id, const TablePrinter &table);

    /** Close the output document (JSON footer); called by the runner. */
    void finish();

    /**
     * Scenario-local metric sink: scenario bodies fold deterministic
     * counters here (streaming cells, analytic scenarios) alongside
     * whatever the engine accumulates through its sharded runs.
     */
    obs::MetricSet &metrics() { return metrics_; }

    /**
     * Full run-report metric set: the scenario-local sink merged with
     * the engine's deterministic totals, plus the masked sched.*
     * scheduling counters, ckpt.* checkpoint bookkeeping, and timing.* span
     * summaries (when collected). The non-masked section is a
     * function of (scenario, options, seed) only — never of the
     * thread count.
     */
    obs::MetricSet collectMetrics() const;

    /**
     * Arm checkpointing for the lazily-built engine: @p policy is
     * installed (and @p ledger applied, when non-null) the moment
     * engine() first constructs it. Called by runScenario before the
     * scenario body runs.
     */
    void setCheckpoint(const ckpt::CheckpointPolicy &policy,
                       std::unique_ptr<ckpt::CheckpointLedger> ledger);

  private:
    RunOptions options_;
    std::ostream &os_;
    std::unique_ptr<Engine> engine_; ///< lazily constructed
    obs::MetricSet metrics_;
    bool firstTable_ = true;
    ckpt::CheckpointPolicy ckptPolicy_{};
    std::unique_ptr<ckpt::CheckpointLedger> ckptLedger_;
};

/** One registered scenario. */
struct Scenario
{
    std::string name;
    std::string description;
    void (*run)(ScenarioContext &);
};

/** All scenarios, in presentation order. */
const std::vector<Scenario> &scenarioRegistry();

/** Look up a scenario by name; nullptr when unknown. */
const Scenario *findScenario(const std::string &name);

/** Run one scenario with the given options; returns an exit code. */
int runScenario(const std::string &name, const RunOptions &options,
                std::ostream &os);

/**
 * Entry point of a thin bench binary pinned to @p name: parses the
 * shared flags (everything but --scenario) and runs.
 */
int scenarioMain(const std::string &name, int argc, char **argv);

/** Entry point of the nisqpp_run binary. */
int nisqppRunMain(int argc, char **argv);

} // namespace nisqpp

#endif // NISQPP_ENGINE_SCENARIO_HH
