/**
 * @file
 * Kill→resume→compare torture loop for the checkpoint subsystem: the
 * executable proof that a sweep interrupted at an arbitrary write —
 * including a torn, half-flushed write — resumes to output
 * byte-identical with a run that was never interrupted.
 *
 *   ckpt_torture --run BIN --scenario NAME --dir DIR [--threads N]
 *                [--seed S] [--trials-scale X] [--shard-trials N]
 *                [--interval N] [--max-iters N]
 *
 * The harness first records a golden run (single-threaded, no
 * checkpointing): the CSV stdout and the --metrics-out run report.
 * It then loops a checkpointed run of the same scenario at --threads N
 * under NISQPP_FAULT_INJECT, iteration i dying at write i+1 (every
 * third iteration tears the write mid-stream instead of completing
 * it), resuming from the surviving checkpoint each time, until one
 * resume runs to completion. Because end-of-invocation writes always
 * happen and kill mode finishes its write before exiting, the frontier
 * the checkpoint records grows monotonically with i, so the loop
 * terminates.
 *
 * Hard failures: any exit status other than 0 (done) or 87 (fault
 * fired); a loop that completes without a single injected fault; any
 * byte difference between the golden CSV and the final resumed CSV;
 * any byte difference between the deterministic counters/histograms
 * sections of the golden and final run reports. Exit 0 = survived.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --run BIN --scenario NAME --dir DIR [--threads N]"
                 " [--seed S] [--trials-scale X] [--shard-trials N]"
                 " [--interval N] [--max-iters N]\n";
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &what)
{
    std::cerr << "ckpt_torture: FAIL: " << what << "\n";
    std::exit(1);
}

/**
 * Strict positive-integer flag parse: the whole token must be digits
 * (atoi-style partial parses silently turned "4abc" into 4 and "abc"
 * into 0, making typos indistinguishable from real settings).
 */
int
positiveIntValue(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        v < 1 || v > 1000000)
        fail(flag + ": expected a positive integer, got '" + text +
             "'");
    return static_cast<int>(v);
}

/** Single-quote @p s for POSIX sh. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

/**
 * Run @p command through the shell; returns the child's exit status,
 * failing hard when it died to an unexpected signal.
 */
int
runCommand(const std::string &command)
{
    const int raw = std::system(command.c_str());
    if (raw == -1)
        fail("system() failed for: " + command);
#ifdef _WIN32
    return raw;
#else
    if (WIFSIGNALED(raw))
        fail("child killed by signal " +
             std::to_string(WTERMSIG(raw)) + ": " + command);
    if (!WIFEXITED(raw))
        fail("child did not exit normally: " + command);
    return WEXITSTATUS(raw);
#endif
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        fail("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * The deterministic slice of a --metrics-out run report: everything
 * from the "counters" object through the start of the masked "timing"
 * section. The masked tail (wall-clock spans, engine scheduling,
 * checkpoint bookkeeping) legitimately differs between a golden run
 * and a torn-and-resumed one, so it is excluded from the comparison.
 */
std::string
deterministicSlice(const std::string &report, const std::string &path)
{
    const std::string from = "\"counters\":";
    const std::string to = ",\"timing\":";
    const std::size_t begin = report.find(from);
    const std::size_t end = report.find(to);
    if (begin == std::string::npos || end == std::string::npos ||
        end <= begin)
        fail(path + " is not a run report (no counters/timing "
                    "sections)");
    return report.substr(begin, end - begin);
}

struct Options
{
    std::string runBinary;
    std::string scenario;
    std::string dir;
    int threads = 2;
    std::string seed;        ///< forwarded verbatim when non-empty
    std::string trialsScale; ///< forwarded verbatim when non-empty
    std::string shardTrials; ///< forwarded verbatim when non-empty
    int interval = 4;
    int maxIters = 200;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--run")
            opt.runBinary = value(i);
        else if (arg == "--scenario")
            opt.scenario = value(i);
        else if (arg == "--dir")
            opt.dir = value(i);
        else if (arg == "--threads")
            opt.threads = positiveIntValue(arg, value(i));
        else if (arg == "--seed")
            opt.seed = value(i);
        else if (arg == "--trials-scale")
            opt.trialsScale = value(i);
        else if (arg == "--shard-trials")
            opt.shardTrials = value(i);
        else if (arg == "--interval")
            opt.interval = positiveIntValue(arg, value(i));
        else if (arg == "--max-iters")
            opt.maxIters = positiveIntValue(arg, value(i));
        else
            usage(argv[0]);
    }
    if (opt.runBinary.empty() || opt.scenario.empty() ||
        opt.dir.empty() || opt.threads < 1 || opt.interval < 1 ||
        opt.maxIters < 1)
        usage(argv[0]);
    return opt;
}

/** Shared flag tail: scenario, determinism knobs, CSV output. */
std::string
commonArgs(const Options &opt)
{
    std::string args = shellQuote(opt.scenario) + " --format csv";
    if (!opt.seed.empty())
        args += " --seed " + shellQuote(opt.seed);
    if (!opt.trialsScale.empty())
        args += " --trials-scale " + shellQuote(opt.trialsScale);
    if (!opt.shardTrials.empty())
        args += " --shard-trials " + shellQuote(opt.shardTrials);
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    const std::string bin = shellQuote(opt.runBinary);
    const std::string ckptPath = opt.dir + "/torture.ckpt";
    const std::string goldenCsv = opt.dir + "/golden.csv";
    const std::string goldenReport = opt.dir + "/golden.json";
    const std::string iterCsv = opt.dir + "/iter.csv";
    const std::string iterReport = opt.dir + "/iter.json";
    const std::string iterErr = opt.dir + "/iter.err";

    std::remove(ckptPath.c_str());
    std::remove((ckptPath + ".tmp").c_str());

    // Golden reference: single-threaded, never checkpointed, never
    // interrupted. Everything the torture loop produces must converge
    // to these bytes.
    const std::string goldenCmd =
        bin + " " + commonArgs(opt) + " --threads 1 --metrics-out " +
        shellQuote(goldenReport) + " > " + shellQuote(goldenCsv) +
        " 2> " + shellQuote(opt.dir + "/golden.err");
    std::cout << "ckpt_torture: recording golden run ("
              << opt.scenario << ", 1 thread)\n";
    if (const int rc = runCommand(goldenCmd); rc != 0)
        fail("golden run exited " + std::to_string(rc) + "; see " +
             opt.dir + "/golden.err");

    int kills = 0;
    int tears = 0;
    bool done = false;
    for (int iter = 0; iter < opt.maxIters && !done; ++iter) {
        // Iteration i dies at the (i+1)-th checkpoint write; every
        // third iteration tears that write mid-stream instead of
        // completing it. Both modes exit 87.
        const bool tear = iter % 3 == 2;
        const std::string plan =
            (tear ? std::string("tear-after=")
                  : std::string("kill-after=")) +
            std::to_string(iter + 1);

        std::string cmd = "NISQPP_FAULT_INJECT=" + shellQuote(plan) +
                          " " + bin + " " + commonArgs(opt) +
                          " --threads " + std::to_string(opt.threads) +
                          " --checkpoint-interval " +
                          std::to_string(opt.interval);
        std::ifstream probe(ckptPath);
        if (probe.good())
            cmd += " --resume " + shellQuote(ckptPath);
        else
            cmd += " --checkpoint " + shellQuote(ckptPath);
        cmd += " --metrics-out " + shellQuote(iterReport) + " > " +
               shellQuote(iterCsv) + " 2> " + shellQuote(iterErr);

        const int rc = runCommand(cmd);
        if (rc == 0) {
            done = true;
            std::cout << "ckpt_torture: iteration " << iter << " ("
                      << plan << ") ran to completion\n";
        } else if (rc == 87) {
            tear ? ++tears : ++kills;
            std::cout << "ckpt_torture: iteration " << iter << " ("
                      << plan << ") killed as planned\n";
        } else {
            fail("iteration " + std::to_string(iter) + " (" + plan +
                 ") exited " + std::to_string(rc) +
                 " (want 0 or 87); see " + iterErr);
        }
    }

    if (!done)
        fail("no iteration ran to completion within " +
             std::to_string(opt.maxIters) + " attempts");
    if (kills + tears == 0)
        fail("the run completed before any fault fired; the torture "
             "loop proved nothing (shrink --interval or grow the "
             "trial budget)");

    const std::string golden = readFile(goldenCsv);
    const std::string resumed = readFile(iterCsv);
    if (golden != resumed)
        fail("resumed CSV differs from the golden run: diff " +
             goldenCsv + " " + iterCsv);

    const std::string goldenDet =
        deterministicSlice(readFile(goldenReport), goldenReport);
    const std::string resumedDet =
        deterministicSlice(readFile(iterReport), iterReport);
    if (goldenDet != resumedDet)
        fail("resumed run report counters/histograms differ from the "
             "golden run: diff " + goldenReport + " " + iterReport);

    std::cout << "ckpt_torture: PASS — survived " << kills
              << " kill(s) and " << tears
              << " torn write(s); resumed output byte-identical to "
                 "the golden run.\n";
    return 0;
}
