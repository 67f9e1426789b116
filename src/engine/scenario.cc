#include "engine/scenario.hh"

#include <fstream>
#include <iostream>

#include "common/logging.hh"
#include "common/simd.hh"
#include "engine/knobs.hh"
#include "engine/scenarios.hh"
#include "obs/report.hh"
#include "obs/trace.hh"

namespace nisqpp {

ScenarioContext::ScenarioContext(const RunOptions &options,
                                 std::ostream &os)
    : options_(options), os_(os)
{
    if (options_.format == OutputFormat::Json)
        os_ << "{\"tables\":[";
}

Engine &
ScenarioContext::engine()
{
    if (!engine_) {
        EngineOptions engineOptions;
        engineOptions.threads = options_.threads;
        engineOptions.shardTrials = options_.shardTrials;
        engineOptions.batchLanes = options_.batchLanes;
        engine_ = std::make_unique<Engine>(engineOptions);
        if (ckptPolicy_.enabled())
            engine_->setCheckpointPolicy(ckptPolicy_);
        if (ckptLedger_)
            engine_->resumeFrom(std::move(*ckptLedger_));
    }
    return *engine_;
}

void
ScenarioContext::setCheckpoint(
    const ckpt::CheckpointPolicy &policy,
    std::unique_ptr<ckpt::CheckpointLedger> ledger)
{
    ckptPolicy_ = policy;
    ckptLedger_ = std::move(ledger);
}

std::uint64_t
ScenarioContext::seed(std::uint64_t fallback) const
{
    return options_.seedSet ? options_.seed : fallback;
}

StopRule
ScenarioContext::scaled(const StopRule &rule) const
{
    return rule.scaled(options_.trialsScale);
}

void
ScenarioContext::note(const std::string &line)
{
    if (options_.format == OutputFormat::Table)
        os_ << line << '\n';
}

void
ScenarioContext::table(const std::string &id, const TablePrinter &table)
{
    switch (options_.format) {
      case OutputFormat::Table:
        table.print(os_);
        break;
      case OutputFormat::Csv:
        os_ << "# " << id << '\n';
        table.printCsv(os_);
        break;
      case OutputFormat::Json:
        if (!firstTable_)
            os_ << ',';
        firstTable_ = false;
        os_ << "{\"id\":\"" << id << "\",\"table\":";
        table.printJson(os_);
        os_ << '}';
        break;
    }
}

void
ScenarioContext::finish()
{
    if (options_.format == OutputFormat::Json)
        os_ << "]}\n";
}

obs::MetricSet
ScenarioContext::collectMetrics() const
{
    obs::MetricSet out = metrics_;
    if (engine_) {
        out.merge(engine_->metrics());
        engine_->runtimeMetricsInto(out);
        engine_->checkpointMetricsInto(out);
    }
    obs::stageTimingInto(out);
    return out;
}

const std::vector<Scenario> &
scenarioRegistry()
{
    using namespace scenarios;
    static const std::vector<Scenario> registry{
        {"fig01_sqv", "Fig. 1: SQV boost from approximate QEC",
         fig01Sqv},
        {"fig05_backlog",
         "Fig. 5: wall clock vs compute time under decode backlog",
         fig05Backlog},
        {"fig06_runtime",
         "Fig. 6: running time vs syndrome processing ratio f",
         fig06Runtime},
        {"fig10_variants",
         "Fig. 10 top row: incremental mesh design steps (MC sweep)",
         fig10Variants},
        {"fig10_final",
         "Fig. 10 (a)/(b): final design error scaling (MC sweep)",
         fig10Final},
        {"fig10_cycles",
         "Fig. 10 (c): cycles-to-solution densities (MC sweep)",
         fig10Cycles},
        {"fig11_distance",
         "Fig. 11: required code distance for 100 T gates",
         fig11Distance},
        {"table1_circuits", "Table I: benchmark characteristics",
         table1Circuits},
        {"table2_cells", "Table II: ERSFQ cell library", table2Cells},
        {"table3_synthesis", "Table III: SFQ synthesis results",
         table3Synthesis},
        {"table4_latency",
         "Table IV: decoder execution time statistics (MC sweep)",
         table4Latency},
        {"table5_fit",
         "Table V: scaling-model fit c2 per distance (MC sweep)",
         table5Fit},
        {"micro_decoders",
         "decoder throughput shoot-out through the sharded engine",
         microDecoders},
        {"micro_hotpath",
         "tracked per-trial hot-path benchmark (BENCH_hotpath.json)",
         microHotpath},
        {"streaming_backlog",
         "streaming decode pipeline: queue depth, latency percentiles "
         "and backlog growth per decoder x distance x cycle time",
         streamingBacklog},
        {"fig10_measurement",
         "PL vs p under faulty measurement (q = p): d-round windowed "
         "spacetime decoding for MWPM and union-find",
         fig10Measurement},
        {"noise_zoo",
         "every noise channel x every decoder at d = 5: PL grid plus "
         "each decoder's decodeWindow strategy",
         noiseZoo},
        {"tiered_decode",
         "tiered mesh-first decoding: confidence-threshold sweep "
         "mapping the accuracy vs latency vs escalation-rate frontier "
         "against pure-mesh and pure-software baselines",
         tieredDecode},
        {"fault_sweep",
         "fault-injected streaming decode: PL and latency vs fault "
         "rate for each recovery policy (retransmit, carry-forward, "
         "decode deadline, load shedding) against the fault-free "
         "baseline",
         faultSweep},
    };
    return registry;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const Scenario &s : scenarioRegistry())
        if (s.name == name)
            return &s;
    return nullptr;
}

int
runScenario(const std::string &name, const RunOptions &options,
            std::ostream &os)
{
    const Scenario *scenario = findScenario(name);
    if (!scenario) {
        std::cerr << "unknown scenario '" << name
                  << "'; available scenarios:\n";
        for (const Scenario &s : scenarioRegistry())
            std::cerr << "  " << s.name << "\n";
        std::cerr << "(run 'nisqpp_run --list' for descriptions)\n";
        return 1;
    }
    // Open both sinks before any work runs: a bad path should fail
    // fast instead of discarding a long run's report at the end.
    std::ofstream metricsFile;
    if (!options.metricsOut.empty()) {
        metricsFile.open(options.metricsOut);
        if (!metricsFile) {
            std::cerr << "cannot open --metrics-out '"
                      << options.metricsOut << "' for writing\n";
            return 1;
        }
    }
    std::ofstream traceFile;
    if (!options.traceOut.empty()) {
        traceFile.open(options.traceOut);
        if (!traceFile) {
            std::cerr << "cannot open --trace-out '"
                      << options.traceOut << "' for writing\n";
            return 1;
        }
    }

    // Resume first: a bad or mismatched checkpoint must fail before
    // any simulation work starts.
    std::unique_ptr<ckpt::CheckpointLedger> ledger;
    if (!options.resumePath.empty()) {
        try {
            ledger = std::make_unique<ckpt::CheckpointLedger>(
                ckpt::loadCheckpoint(options.resumePath));
        } catch (const ckpt::CheckpointError &err) {
            std::cerr << "cannot resume: " << err.what() << "\n";
            return 1;
        }
        if (ledger->scope != name) {
            std::cerr << "cannot resume: checkpoint '"
                      << options.resumePath
                      << "' was written by scenario '" << ledger->scope
                      << "', not '" << name << "'\n";
            return 1;
        }
    }
    ckpt::CheckpointPolicy policy;
    if (!options.checkpointPath.empty() ||
        !options.resumePath.empty()) {
        policy.path = !options.checkpointPath.empty()
                          ? options.checkpointPath
                          : options.resumePath;
        policy.intervalShards = options.checkpointInterval;
        policy.scope = name;
        // SIGINT/SIGTERM now drain, persist a final checkpoint and
        // exit with kExitInterrupted instead of dropping the run.
        ckpt::installSignalHandlers();
    }

    const bool wantTiming =
        !options.metricsOut.empty() || !options.traceOut.empty();
    if (wantTiming) {
        obs::resetStageTimes();
        obs::setTimingCollection(true);
        obs::setTraceCapture(!options.traceOut.empty());
    }

    ScenarioContext ctx(options, os);
    if (policy.enabled() || ledger)
        ctx.setCheckpoint(policy, std::move(ledger));
    int rc = 0;
    try {
        scenario->run(ctx);
        ctx.finish();
    } catch (const ckpt::InterruptedError &err) {
        std::cerr << "\ninterrupted: checkpoint written to '"
                  << err.path() << "'; resume with --resume '"
                  << err.path() << "'\n";
        rc = ckpt::kExitInterrupted;
    } catch (const ckpt::CheckpointError &err) {
        std::cerr << err.what() << "\n";
        rc = 1;
    }

    if (wantTiming) {
        obs::setTimingCollection(false);
        obs::setTraceCapture(false);
        // Reports describe a completed run only; an interrupted or
        // failed run must not overwrite them with partial data.
        if (rc == 0 && metricsFile.is_open()) {
            obs::RunReportConfig cfg;
            cfg.scenario = name;
            cfg.threads = options.threads;
            cfg.shardTrials = options.shardTrials;
            cfg.trialsScale = options.trialsScale;
            cfg.seed = options.seed;
            cfg.seedSet = options.seedSet;
            cfg.batchLanes = options.batchLanes;
            if (!obs::writeRunReport(metricsFile, cfg,
                                     ctx.collectMetrics())) {
                std::cerr << "write failed: --metrics-out '"
                          << options.metricsOut << "'\n";
                return 1;
            }
        }
        if (rc == 0 && traceFile.is_open()) {
            if (!obs::writeChromeTrace(traceFile)) {
                std::cerr << "write failed: --trace-out '"
                          << options.traceOut << "'\n";
                return 1;
            }
        }
    }
    return rc;
}

namespace {

void
printUsage(std::ostream &os, const std::string &binary, bool withScenario)
{
    os << "usage: " << binary;
    if (withScenario)
        os << " [--scenario] NAME";
    os << " [--threads N] [--shard-trials N] [--trials-scale X]"
          " [--seed S] [--batch N] [--simd scalar|v256|v512]"
          " [--format table|csv|json]"
          " [--metrics-out FILE] [--trace-out FILE]"
          " [--checkpoint FILE] [--checkpoint-interval N]"
          " [--resume FILE] [--escalate-threshold X]"
          " [--fault-drop X] [--fault-corrupt X] [--fault-dup X]"
          " [--fault-delay X] [--fault-stall X] [--fault-fail X]"
          " [--fault-seed S] [--deadline-ns X]";
    if (withScenario)
        os << " [--list]";
    os << " [--help]\n";
    if (withScenario) {
        os << "\nscenarios:\n";
        for (const Scenario &s : scenarioRegistry())
            os << "  " << s.name << "  -  " << s.description << "\n";
    }
    os << "\n--metrics-out writes a versioned JSON run report "
          "(deterministic counters\nplus masked timing/scheduling "
          "summaries); --trace-out writes a\nchrome://tracing event "
          "dump of the instrumented stages.\n";
    os << "\n--escalate-threshold X pins tiered_decode to one confidence"
          " threshold in [0, 1]\ninstead of its default sweep.\n";
    os << "--fault-drop/--fault-corrupt/--fault-dup/--fault-delay/"
          "--fault-stall/--fault-fail\n(fractions in [0, 1]) and"
          " --fault-seed S pin fault_sweep to one fault operating\n"
          "point instead of its default rate grid; --deadline-ns X > 0"
          " pins its per-round\ndecode deadline.\n";
    os << "--batch N groups N per-round or windowed trials per decode call"
          " of the mesh\nand tiered decoders, which decode a group"
          " lane-packed; every other decoder\ndecodes one trial at a"
          " time (aggregates are identical either way). Lifetime\n"
          "cells and streams ignore it: the decoder sizes lifetime"
          " lanes.\n";
    os << "--simd scalar|v256|v512 pins the lane-word width of the mesh"
          " lane engines\n(default: widest the CPU supports); results"
          " are bit-identical at every width.\n";
    os << "\n--checkpoint FILE periodically persists the sweep's shard"
          " ledger (atomic\ntemp+fsync+rename writes; SIGINT/SIGTERM"
          " write a final checkpoint and exit " +
              std::to_string(ckpt::kExitInterrupted) +
          ").\n--resume FILE restores a ledger and continues at each"
          " cell's first incomplete\nshard — byte-identical to an"
          " uninterrupted run at any --threads.\n"
          "--checkpoint-interval N sets shard completions between"
          " periodic writes\n(default " +
              std::to_string(ckpt::kDefaultCheckpointInterval) +
          ").\n";
    os << "\nEnvironment twins set a flag's default, and the flag"
          " overrides them. A bad\nflag value is fatal; a bad env"
          " value warns once and is ignored.\n"
          "  NISQPP_TRIALS=X         --trials-scale X\n"
          "  NISQPP_BATCH=N          --batch N\n"
          "  NISQPP_SIMD=W           --simd W\n"
          "  NISQPP_CKPT_INTERVAL=N  --checkpoint-interval N\n"
          "  NISQPP_STREAM_FAULTS=   --fault-KEY X for each key of"
          " drop=X,corrupt=X,dup=X,\n"
          "                          delay=X,stall=X,fail=X,seed=S, plus"
          " env-only\n"
          "                          delay-cycles=N,stall-factor=X\n"
          "  NISQPP_FAULT_INJECT=    kill-after=N|tear-after=N (env only:"
          " crash the Nth\n"
          "                          checkpoint write, for the torture"
          " harness)\n";
}

struct ParsedArgs
{
    RunOptions options;
    std::string scenario;
    bool listOnly = false;
    bool helpOnly = false;
};

ParsedArgs
parseArgs(int argc, char **argv, bool scenarioFlagAllowed)
{
    ParsedArgs parsed;
    RunOptions &o = parsed.options;
    // The only environment reads of a run, each through its flag's
    // parser: the env twins set the defaults the flags below override.
    // In-process runs (runScenario, the golden net) never see them.
    knobs::fromEnv(knobs::trialsScale, o.trialsScale);
    knobs::fromEnv(knobs::batch, o.batchLanes);
    knobs::fromEnv(knobs::checkpointInterval, o.checkpointInterval);
    o.faultGiven = knobs::fromEnv(knobs::streamFaults, o.faultSpec);
    simd::Width width = simd::activeWidth();
    if (knobs::fromEnv(knobs::simdWidth, width))
        simd::setActiveWidth(width);
    ckpt::WriteFault writeFault;
    knobs::fromEnv(knobs::faultInject, writeFault);
    ckpt::setWriteFault(writeFault);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal(arg + ": missing value");
            return argv[++i];
        };
        auto path = [&](std::string &slot) {
            slot = value();
            if (slot.empty())
                fatal(arg + ": expected a file path");
        };
        if (arg == "--help" || arg == "-h") {
            parsed.helpOnly = true;
        } else if (arg == "--list" && scenarioFlagAllowed) {
            parsed.listOnly = true;
        } else if (arg == "--scenario" && scenarioFlagAllowed) {
            parsed.scenario = value();
        } else if (arg == "--threads") {
            knobs::fromFlag(knobs::threads, value(), o.threads);
        } else if (arg == "--shard-trials") {
            knobs::fromFlag(knobs::shardTrials, value(), o.shardTrials);
        } else if (arg == "--trials-scale") {
            knobs::fromFlag(knobs::trialsScale, value(), o.trialsScale);
        } else if (arg == "--seed") {
            knobs::fromFlag(knobs::runSeed, value(), o.seed);
            o.seedSet = true;
        } else if (arg == "--batch") {
            knobs::fromFlag(knobs::batch, value(), o.batchLanes);
        } else if (arg == "--simd") {
            knobs::fromFlag(knobs::simdWidth, value(), width);
            simd::setActiveWidth(width);
        } else if (arg == "--escalate-threshold") {
            knobs::fromFlag(knobs::escalateThreshold, value(),
                            o.escalateThreshold);
        } else if (const auto *fault = knobs::faultFlag(arg)) {
            knobs::fromFlag(*fault, value(), o.faultSpec);
            o.faultGiven = true;
        } else if (arg == "--deadline-ns") {
            knobs::fromFlag(knobs::deadlineNs, value(), o.deadlineNs);
        } else if (arg == "--checkpoint") {
            path(o.checkpointPath);
        } else if (arg == "--resume") {
            path(o.resumePath);
        } else if (arg == "--checkpoint-interval") {
            knobs::fromFlag(knobs::checkpointInterval, value(),
                            o.checkpointInterval);
            o.checkpointIntervalSet = true;
        } else if (arg == "--metrics-out") {
            path(o.metricsOut);
        } else if (arg == "--trace-out") {
            path(o.traceOut);
        } else if (arg == "--format") {
            const std::string text = value();
            if (text == "table")
                o.format = OutputFormat::Table;
            else if (text == "csv")
                o.format = OutputFormat::Csv;
            else if (text == "json")
                o.format = OutputFormat::Json;
            else
                fatal("--format: expected table, csv or json, got '" +
                      text + "'");
        } else if (scenarioFlagAllowed && !arg.empty() &&
                   arg[0] != '-' && parsed.scenario.empty()) {
            // Bare first operand: scenario name without --scenario.
            parsed.scenario = arg;
        } else {
            fatal("unknown argument '" + arg + "' (try --help)");
        }
    }
    if (o.checkpointIntervalSet && o.checkpointPath.empty() &&
        o.resumePath.empty())
        fatal("--checkpoint-interval requires --checkpoint or "
              "--resume");
    return parsed;
}

} // namespace

int
scenarioMain(const std::string &name, int argc, char **argv)
{
    const ParsedArgs parsed = parseArgs(argc, argv, false);
    if (parsed.helpOnly) {
        printUsage(std::cout, argv[0], false);
        return 0;
    }
    return runScenario(name, parsed.options, std::cout);
}

int
nisqppRunMain(int argc, char **argv)
{
    const ParsedArgs parsed = parseArgs(argc, argv, true);
    if (parsed.helpOnly) {
        printUsage(std::cout, "nisqpp_run", true);
        return 0;
    }
    if (parsed.listOnly) {
        for (const Scenario &s : scenarioRegistry())
            std::cout << s.name << "  -  " << s.description << "\n";
        return 0;
    }
    if (parsed.scenario.empty()) {
        printUsage(std::cerr, "nisqpp_run", true);
        return 1;
    }
    return runScenario(parsed.scenario, parsed.options, std::cout);
}

} // namespace nisqpp
