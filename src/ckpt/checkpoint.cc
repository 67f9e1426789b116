#include "ckpt/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace nisqpp::ckpt {

std::uint64_t
fnv64(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnv64(const std::string &text, std::uint64_t seed)
{
    return fnv64(text.data(), text.size(), seed);
}

std::string
hexBits(double v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    return buf;
}

namespace {

/** Parse-time size caps: a checksummed file never exceeds these, so a
 * value above them is corruption the checksum happened to miss (or a
 * handcrafted file) — reject before allocating. */
constexpr std::size_t kMaxInvocations = 1u << 16;
constexpr std::size_t kMaxCells = 1u << 20;
constexpr std::size_t kMaxHistBins = 1u << 26;

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

[[noreturn]] void
malformed(std::size_t lineNo, const std::string &what)
{
    throw CheckpointError("checkpoint malformed at line " +
                          std::to_string(lineNo) + ": " + what);
}

[[noreturn]] void
truncated(std::size_t lineNo, const std::string &expected)
{
    throw CheckpointError(
        "checkpoint truncated: unexpected end of file at line " +
        std::to_string(lineNo) + " (expected " + expected + ")");
}

double
parseDoubleBits(const std::string &tok, std::size_t lineNo)
{
    if (tok.size() != 16 ||
        tok.find_first_not_of("0123456789abcdef") != std::string::npos)
        malformed(lineNo, "bad double bit pattern '" + tok + "'");
    const std::uint64_t bits = std::strtoull(tok.c_str(), nullptr, 16);
    return std::bit_cast<double>(bits);
}

/** "<numbins> <overflow> [i:c ...]" from the rest of @p in. */
void
parseHistTail(std::istringstream &in, std::size_t lineNo,
              std::vector<std::size_t> &bins, std::size_t &overflow)
{
    std::size_t numBins = 0;
    if (!(in >> numBins >> overflow))
        malformed(lineNo, "bad histogram header");
    if (numBins == 0 || numBins > kMaxHistBins)
        malformed(lineNo, "histogram bin count " +
                              std::to_string(numBins) +
                              " out of range [1, " +
                              std::to_string(kMaxHistBins) + "]");
    bins.assign(numBins, 0);
    std::string tok;
    while (in >> tok) {
        const std::size_t colon = tok.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == tok.size())
            malformed(lineNo, "bad histogram bin token '" + tok + "'");
        char *end = nullptr;
        const unsigned long long i =
            std::strtoull(tok.c_str(), &end, 10);
        if (!end || *end != ':' || i >= numBins)
            malformed(lineNo, "histogram bin index out of range in '" +
                                  tok + "'");
        const char *cstr = tok.c_str() + colon + 1;
        const unsigned long long c = std::strtoull(cstr, &end, 10);
        if (!end || *end != '\0')
            malformed(lineNo, "bad histogram bin count in '" + tok + "'");
        bins[static_cast<std::size_t>(i)] =
            static_cast<std::size_t>(c);
    }
}

void
writeHistTail(std::ostream &os, const Histogram &h)
{
    os << h.numBins() << ' ' << h.overflow();
    for (std::size_t i = 0; i < h.numBins(); ++i)
        if (h.bin(i) != 0)
            os << ' ' << i << ':' << h.bin(i);
}

void
serializeCell(std::ostream &os, std::size_t index,
              const CellLedger &cell)
{
    os << "cell " << index << " frontier " << cell.frontier
       << " stopped " << (cell.stopped ? 1 : 0) << '\n';
    const MonteCarloResult &r = cell.partial;
    // logicalErrorRate and ci are derived; finalize() recomputes them
    // from the integers after restore.
    os << "r " << r.trials << ' ' << r.failures << ' '
       << r.syndromeResidualFailures << '\n';
    const RunningStatsRaw s = r.cycles.raw();
    os << "s " << s.n << ' ' << hexBits(s.mean) << ' ' << hexBits(s.m2)
       << ' ' << hexBits(s.min) << ' ' << hexBits(s.max) << '\n';
    os << "h ";
    writeHistTail(os, r.cycleHistogram);
    os << '\n';
    r.metrics.forEachScalar([&](const std::string &name, bool isGauge,
                                std::uint64_t value) {
        if (obs::maskedName(name))
            return;
        require(name.find_first_of(" \n") == std::string::npos,
                "checkpoint: metric name with whitespace: " + name);
        os << (isGauge ? "mg " : "mc ") << name << ' ' << value << '\n';
    });
    r.metrics.forEachHistogram(
        [&](const std::string &name,
            const obs::MetricSet::HistogramEntry &entry) {
            if (obs::maskedName(name))
                return;
            require(name.find_first_of(" \n") == std::string::npos,
                    "checkpoint: metric name with whitespace: " + name);
            os << "mh " << name << ' ' << entry.sum << ' ';
            writeHistTail(os, entry.hist);
            os << '\n';
        });
    os << "endcell\n";
}

CellLedger
parseCell(const std::vector<std::string> &lines, std::size_t &idx,
          std::size_t expectIndex)
{
    const auto need = [&](const char *what) -> const std::string & {
        if (idx >= lines.size())
            truncated(lines.size() + 1, what);
        return lines[idx];
    };

    CellLedger cell;
    {
        std::istringstream in(need("cell header"));
        std::string kw, kwFrontier, kwStopped;
        std::size_t index = 0;
        int stopped = -1;
        if (!(in >> kw >> index >> kwFrontier >> cell.frontier >>
              kwStopped >> stopped) ||
            kw != "cell" || kwFrontier != "frontier" ||
            kwStopped != "stopped" || (stopped != 0 && stopped != 1))
            malformed(idx + 1, "bad cell header '" + lines[idx] + "'");
        if (index != expectIndex)
            malformed(idx + 1, "cell index " + std::to_string(index) +
                                   " out of order (expected " +
                                   std::to_string(expectIndex) + ")");
        cell.stopped = stopped == 1;
        ++idx;
    }
    {
        std::istringstream in(need("trial counts"));
        std::string kw;
        if (!(in >> kw >> cell.partial.trials >> cell.partial.failures >>
              cell.partial.syndromeResidualFailures) ||
            kw != "r")
            malformed(idx + 1, "bad trial-count line");
        ++idx;
    }
    {
        std::istringstream in(need("cycle statistics"));
        std::string kw, mean, m2, mn, mx;
        RunningStatsRaw raw;
        if (!(in >> kw >> raw.n >> mean >> m2 >> mn >> mx) || kw != "s")
            malformed(idx + 1, "bad cycle-statistics line");
        raw.mean = parseDoubleBits(mean, idx + 1);
        raw.m2 = parseDoubleBits(m2, idx + 1);
        raw.min = parseDoubleBits(mn, idx + 1);
        raw.max = parseDoubleBits(mx, idx + 1);
        cell.partial.cycles = RunningStats::fromRaw(raw);
        ++idx;
    }
    {
        std::istringstream in(need("cycle histogram"));
        std::string kw;
        if (!(in >> kw) || kw != "h")
            malformed(idx + 1, "bad cycle-histogram line");
        std::vector<std::size_t> bins;
        std::size_t overflow = 0;
        parseHistTail(in, idx + 1, bins, overflow);
        cell.partial.cycleHistogram =
            Histogram::fromParts(std::move(bins), overflow);
        ++idx;
    }
    while (need("metric line or endcell") != "endcell") {
        std::istringstream in(lines[idx]);
        std::string kw, name;
        if (!(in >> kw >> name))
            malformed(idx + 1, "bad metric line '" + lines[idx] + "'");
        if (kw == "mc" || kw == "mg") {
            std::uint64_t value = 0;
            std::string extra;
            if (!(in >> value) || (in >> extra))
                malformed(idx + 1, "bad metric value on '" + name + "'");
            if (kw == "mc")
                cell.partial.metrics.add(name, value);
            else
                cell.partial.metrics.maxGauge(name, value);
        } else if (kw == "mh") {
            std::uint64_t sum = 0;
            if (!(in >> sum))
                malformed(idx + 1, "bad metric histogram sum on '" +
                                       name + "'");
            std::vector<std::size_t> bins;
            std::size_t overflow = 0;
            parseHistTail(in, idx + 1, bins, overflow);
            cell.partial.metrics.mergeHistogram(
                name, Histogram::fromParts(std::move(bins), overflow),
                sum);
        } else {
            malformed(idx + 1,
                      "unknown cell record '" + kw + "'");
        }
        ++idx;
    }
    ++idx; // endcell
    cell.partial.finalize();
    return cell;
}

std::uint64_t
hashLines(const std::vector<std::string> &lines, std::size_t beg,
          std::size_t end)
{
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = beg; i < end; ++i) {
        h = fnv64(lines[i].data(), lines[i].size(), h);
        h = fnv64("\n", 1, h);
    }
    return h;
}

/** @name Fault injection + write bookkeeping (process-global) @{ */

std::mutex g_writeMutex;
std::uint64_t g_writeCount = 0;
WriteFault g_writeFault;
std::function<void(std::uint64_t)> g_observer;

void
writeAll(int fd, const char *data, std::size_t len,
         const std::string &path)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            throw CheckpointError("cannot write checkpoint '" + path +
                                  "': write: " + std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
}

/** Best-effort fsync of @p path's directory so the rename is durable. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/** @} */

std::atomic<bool> g_interrupt{false};

extern "C" void
handleTerminationSignal(int sig)
{
    // Async-signal-safe: set the flag and restore the default
    // disposition so a second signal kills a wedged process.
    g_interrupt.store(true, std::memory_order_relaxed);
    std::signal(sig, SIG_DFL);
}

} // namespace

void
serializeLedger(std::ostream &os, const CheckpointLedger &ledger)
{
    require(ledger.scope.find('\n') == std::string::npos,
            "checkpoint: scope with newline");
    std::ostringstream head;
    head << "nisqpp-ckpt " << kCheckpointVersion << '\n'
         << "scope " << ledger.scope << '\n'
         << "invocations " << ledger.invocations.size() << '\n';
    os << head.str() << "check " << hex16(fnv64(head.str())) << '\n';
    for (std::size_t i = 0; i < ledger.invocations.size(); ++i) {
        const InvocationLedger &inv = ledger.invocations[i];
        require(inv.configText.find('\n') == std::string::npos,
                "checkpoint: config text with newline");
        std::ostringstream body;
        body << "inv " << i << " complete " << (inv.complete ? 1 : 0)
             << " cells " << inv.cells.size() << '\n'
             << "config " << inv.configText << '\n';
        for (std::size_t j = 0; j < inv.cells.size(); ++j)
            serializeCell(body, j, inv.cells[j]);
        os << body.str() << "endinv " << hex16(fnv64(body.str()))
           << '\n';
    }
    os << "end " << ledger.invocations.size() << '\n';
}

CheckpointLedger
deserializeLedger(std::istream &is)
{
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(std::move(line));
    if (lines.empty())
        truncated(1, "checkpoint header");

    // Version gate first: a future-format file should say "unsupported
    // version", not "checksum mismatch".
    {
        std::istringstream in(lines[0]);
        std::string magic;
        long long version = -1;
        if (!(in >> magic >> version) || magic != "nisqpp-ckpt")
            malformed(1, "not a nisqpp checkpoint (bad magic '" +
                             lines[0] + "')");
        if (version != kCheckpointVersion)
            throw CheckpointError(
                "unsupported checkpoint version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
    }
    if (lines.size() < 4)
        truncated(lines.size() + 1, "checkpoint header");

    CheckpointLedger ledger;
    if (lines[1].rfind("scope ", 0) != 0)
        malformed(2, "expected 'scope <name>'");
    ledger.scope = lines[1].substr(std::strlen("scope "));

    std::size_t invocations = 0;
    {
        std::istringstream in(lines[2]);
        std::string kw;
        if (!(in >> kw >> invocations) || kw != "invocations" ||
            invocations > kMaxInvocations)
            malformed(3, "bad invocation count '" + lines[2] + "'");
    }
    {
        std::istringstream in(lines[3]);
        std::string kw, sum;
        if (!(in >> kw >> sum) || kw != "check")
            malformed(4, "expected 'check <fnv64>'");
        if (sum != hex16(hashLines(lines, 0, 3)))
            throw CheckpointError("checkpoint header checksum mismatch "
                                  "(flipped or torn bytes)");
    }

    std::size_t idx = 4;
    for (std::size_t i = 0; i < invocations; ++i) {
        // Locate and verify the whole section before trusting any of
        // its size fields.
        const std::size_t beg = idx;
        std::size_t end = beg;
        while (end < lines.size() && lines[end].rfind("endinv ", 0) != 0)
            ++end;
        if (end == lines.size())
            truncated(lines.size() + 1,
                      "endinv of invocation " + std::to_string(i));
        {
            std::istringstream in(lines[end]);
            std::string kw, sum;
            in >> kw >> sum;
            if (sum != hex16(hashLines(lines, beg, end)))
                throw CheckpointError(
                    "checkpoint section checksum mismatch in "
                    "invocation " +
                    std::to_string(i) + " (flipped or torn bytes)");
        }

        InvocationLedger inv;
        std::size_t cells = 0;
        {
            std::istringstream in(lines[idx]);
            std::string kw, kwComplete, kwCells;
            std::size_t index = 0;
            int complete = -1;
            if (!(in >> kw >> index >> kwComplete >> complete >>
                  kwCells >> cells) ||
                kw != "inv" || kwComplete != "complete" ||
                kwCells != "cells" || index != i ||
                (complete != 0 && complete != 1) || cells > kMaxCells)
                malformed(idx + 1,
                          "bad invocation header '" + lines[idx] + "'");
            inv.complete = complete == 1;
            ++idx;
        }
        if (idx >= lines.size())
            truncated(lines.size() + 1, "config line");
        if (lines[idx].rfind("config ", 0) != 0)
            malformed(idx + 1, "expected 'config <text>'");
        inv.configText = lines[idx].substr(std::strlen("config "));
        ++idx;
        inv.cells.reserve(cells);
        for (std::size_t j = 0; j < cells; ++j)
            inv.cells.push_back(parseCell(lines, idx, j));
        if (idx != end)
            malformed(idx + 1, "trailing content before endinv");
        ++idx; // endinv
        ledger.invocations.push_back(std::move(inv));
    }

    if (idx >= lines.size())
        truncated(lines.size() + 1, "end trailer");
    {
        std::istringstream in(lines[idx]);
        std::string kw;
        std::size_t count = 0;
        if (!(in >> kw >> count) || kw != "end" || count != invocations)
            malformed(idx + 1, "bad end trailer '" + lines[idx] + "'");
    }
    return ledger;
}

void
writeCheckpoint(const std::string &path, const CheckpointLedger &ledger)
{
    std::ostringstream buf;
    serializeLedger(buf, ledger);
    const std::string payload = buf.str();
    const std::string tmp = path + ".tmp";

    std::lock_guard<std::mutex> lock(g_writeMutex);
    const std::uint64_t index = ++g_writeCount;
    const WriteFault &fault = g_writeFault;
    // ">= N", not "== N": the counter is process-global and may have
    // advanced before a death-test fork, and the injector must still
    // fire exactly once.
    const bool fire = fault.mode != WriteFault::Mode::None &&
                      index >= fault.afterWrites;
    const bool tear = fire && fault.mode == WriteFault::Mode::Tear;

    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw CheckpointError("cannot write checkpoint '" + path +
                              "': open '" + tmp +
                              "': " + std::strerror(errno));
    // A torn write dies mid-payload with no rename: the previous good
    // checkpoint at `path` must survive (the atomicity guarantee the
    // torture harness leans on).
    writeAll(fd, payload.data(), tear ? payload.size() / 2 :
                                        payload.size(), path);
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        throw CheckpointError("cannot write checkpoint '" + path +
                              "': fsync: " + std::strerror(err));
    }
    ::close(fd);
    if (tear)
        ::_exit(kExitFaultInjected);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw CheckpointError("cannot write checkpoint '" + path +
                              "': rename: " + std::strerror(errno));
    fsyncParentDir(path);
    if (fire)
        ::_exit(kExitFaultInjected);
    if (g_observer)
        g_observer(index);
}

CheckpointLedger
loadCheckpoint(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw CheckpointError("cannot open checkpoint '" + path +
                              "': " + std::strerror(errno));
    return deserializeLedger(in);
}

void
installSignalHandlers()
{
    std::signal(SIGINT, handleTerminationSignal);
    std::signal(SIGTERM, handleTerminationSignal);
}

bool
interruptRequested()
{
    return g_interrupt.load(std::memory_order_relaxed);
}

void
requestInterrupt()
{
    g_interrupt.store(true, std::memory_order_relaxed);
}

void
clearInterrupt()
{
    g_interrupt.store(false, std::memory_order_relaxed);
}

void
setWriteObserver(std::function<void(std::uint64_t)> observer)
{
    std::lock_guard<std::mutex> lock(g_writeMutex);
    g_observer = std::move(observer);
}

void
setWriteFault(const WriteFault &fault)
{
    std::lock_guard<std::mutex> lock(g_writeMutex);
    g_writeCount = 0;
    g_writeFault = fault;
}

} // namespace nisqpp::ckpt
