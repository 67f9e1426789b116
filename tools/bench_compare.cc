/**
 * @file
 * Guardrail for the tracked hot-path benchmark: diff two micro_hotpath
 * JSON artifacts (e.g. BENCH_hotpath.json against
 * bench/BENCH_hotpath_baseline.json, or a batching-on run against a
 * batching-off run).
 *
 *   bench_compare BASELINE.json CURRENT.json
 *
 * Physics columns are compared exactly: any PL or trial-count
 * difference on a (decoder, d) row present in both artifacts is a
 * hard failure — throughput work must never change trajectories.
 * Rows that exist only in the current artifact are reported as new;
 * rows that disappeared fail. As an internal consistency check, the
 * forced-batch rows of an artifact (sfq_mesh_batch) must carry
 * byte-identical PL to that artifact's scalar rows of the same decoder
 * (the lane-packed path re-decodes the same cells). Throughput columns are reported as speedup ratios,
 * never compared: they are host-dependent by nature.
 *
 * When both inputs are nisqpp.run-report documents (--metrics-out
 * output), the deterministic sections are diffed instead: every
 * "counters" entry and "histograms" entry must match byte for byte in
 * both directions (a missing, added or changed counter is drift). The
 * masked "timing" section is host-dependent and never compared.
 * Mixing a run report with a hotpath artifact is an input error.
 *
 * Exit code 0 = no drift; 1 = drift or malformed input.
 */

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace {

/** Minimal JSON document model (enough for scenario artifacts). */
struct JsonValue;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;
using JsonObject =
    std::vector<std::pair<std::string, std::shared_ptr<JsonValue>>>;

struct JsonValue
{
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
                 JsonObject>
        value;
    /**
     * Source text of a number token: counter diffs compare this, so
     * 64-bit counts never round-trip through double precision.
     */
    std::string raw{};

    const JsonValue *
    field(const std::string &key) const
    {
        if (const auto *obj = std::get_if<JsonObject>(&value))
            for (const auto &[k, v] : *obj)
                if (k == key)
                    return v.get();
        return nullptr;
    }
};

/** Recursive-descent JSON parser; throws std::runtime_error. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue{parseString()};
          case 't': return parseLiteral("true", JsonValue{true});
          case 'f': return parseLiteral("false", JsonValue{false});
          case 'n': return parseLiteral("null", JsonValue{nullptr});
          default: return parseNumber();
        }
    }

    JsonValue
    parseLiteral(const std::string &word, JsonValue v)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            fail("bad literal");
        pos_ += word.size();
        return v;
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        const std::string raw = text_.substr(start, pos_ - start);
        return JsonValue{std::stod(raw), raw};
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("bad escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case '"': case '\\': case '/': out += esc; break;
                  default: fail("unsupported escape");
                }
            } else {
                out += c;
            }
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonArray items;
        if (peek() == ']') {
            ++pos_;
            return JsonValue{std::move(items)};
        }
        while (true) {
            items.push_back(
                std::make_shared<JsonValue>(parseValue()));
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue{std::move(items)};
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonObject fields;
        if (peek() == '}') {
            ++pos_;
            return JsonValue{std::move(fields)};
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            fields.emplace_back(
                std::move(key),
                std::make_shared<JsonValue>(parseValue()));
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue{std::move(fields)};
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** One row of the hotpath table, keyed by (decoder, d). */
struct HotpathRow
{
    std::string trials;
    std::string pl;
    double trialsPerSec = 0.0;
};

using RowKey = std::pair<std::string, std::string>;

/** Read and parse one JSON artifact. */
JsonValue
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        throw std::runtime_error("cannot read " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    return JsonParser(text).parse();
}

/** Extract the "hotpath" table of one artifact into keyed rows. */
std::map<RowKey, HotpathRow>
loadHotpath(const std::string &path, const JsonValue &doc)
{
    const JsonValue *tables = doc.field("tables");
    const auto *list =
        tables ? std::get_if<JsonArray>(&tables->value) : nullptr;
    if (!list)
        throw std::runtime_error(path + ": no tables array");

    for (const auto &entry : *list) {
        const JsonValue *id = entry->field("id");
        const auto *name =
            id ? std::get_if<std::string>(&id->value) : nullptr;
        if (!name || *name != "hotpath")
            continue;
        const JsonValue *table = entry->field("table");
        const JsonValue *header =
            table ? table->field("header") : nullptr;
        const JsonValue *rows = table ? table->field("rows") : nullptr;
        const auto *headerCells =
            header ? std::get_if<JsonArray>(&header->value) : nullptr;
        const auto *rowList =
            rows ? std::get_if<JsonArray>(&rows->value) : nullptr;
        if (!headerCells || !rowList)
            throw std::runtime_error(path + ": malformed hotpath "
                                            "table");

        auto column = [&](const std::string &want) {
            for (std::size_t c = 0; c < headerCells->size(); ++c) {
                const auto *cell = std::get_if<std::string>(
                    &(*headerCells)[c]->value);
                if (cell && *cell == want)
                    return static_cast<int>(c);
            }
            throw std::runtime_error(path + ": hotpath table has no '" +
                                     want + "' column");
        };
        const int decoderCol = column("decoder");
        const int dCol = column("d");
        const int trialsCol = column("trials");
        const int plCol = column("PL");
        const int tpsCol = column("trials/s");

        std::map<RowKey, HotpathRow> out;
        for (const auto &rowVal : *rowList) {
            const auto *cells = std::get_if<JsonArray>(&rowVal->value);
            if (!cells)
                continue;
            auto text = [&](int c) -> std::string {
                if (c < 0 || c >= static_cast<int>(cells->size()))
                    return {};
                const auto *s = std::get_if<std::string>(
                    &(*cells)[static_cast<std::size_t>(c)]->value);
                return s ? *s : std::string();
            };
            HotpathRow row;
            row.trials = text(trialsCol);
            row.pl = text(plCol);
            try {
                row.trialsPerSec = std::stod(text(tpsCol));
            } catch (...) {
                row.trialsPerSec = 0.0;
            }
            out[{text(decoderCol), text(dCol)}] = row;
        }
        return out;
    }
    throw std::runtime_error(path + ": no table with id 'hotpath'");
}

/**
 * Forced-batch rows must mirror their scalar family's PL within one
 * artifact: the lane-packed paths re-decode the very same cells, so
 * any deviation is a lane-equivalence bug, not a measurement effect.
 */
int
checkInternalBatchParity(const std::map<RowKey, HotpathRow> &rows,
                         const std::string &label)
{
    static const std::pair<const char *, const char *> kPairs[] = {
        {"sfq_mesh_batch", "sfq_mesh"},
    };
    int drift = 0;
    for (const auto &[batchName, scalarName] : kPairs) {
        for (const auto &[key, row] : rows) {
            if (key.first != batchName)
                continue;
            const auto scalarIt = rows.find({scalarName, key.second});
            if (scalarIt == rows.end())
                continue;
            if (row.pl != scalarIt->second.pl ||
                row.trials != scalarIt->second.trials) {
                std::cerr << "FAIL " << label << ": " << batchName
                          << " d=" << key.second << " PL=" << row.pl
                          << " trials=" << row.trials << " != "
                          << scalarName
                          << " PL=" << scalarIt->second.pl
                          << " trials=" << scalarIt->second.trials
                          << " (lane-equivalence drift)\n";
                ++drift;
            }
        }
    }
    return drift;
}

/** True when @p doc is a --metrics-out run report. */
bool
isRunReport(const JsonValue &doc)
{
    const JsonValue *schema = doc.field("schema");
    const auto *text =
        schema ? std::get_if<std::string>(&schema->value) : nullptr;
    return text && *text == "nisqpp.run-report";
}

/** Structural equality; numbers compare by source text (exact). */
bool
jsonEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.value.index() != b.value.index())
        return false;
    if (std::holds_alternative<double>(a.value))
        return a.raw == b.raw;
    if (const auto *arr = std::get_if<JsonArray>(&a.value)) {
        const auto &other = std::get<JsonArray>(b.value);
        if (arr->size() != other.size())
            return false;
        for (std::size_t i = 0; i < arr->size(); ++i)
            if (!jsonEqual(*(*arr)[i], *other[i]))
                return false;
        return true;
    }
    if (const auto *obj = std::get_if<JsonObject>(&a.value)) {
        const auto &other = std::get<JsonObject>(b.value);
        if (obj->size() != other.size())
            return false;
        for (std::size_t i = 0; i < obj->size(); ++i)
            if ((*obj)[i].first != other[i].first ||
                !jsonEqual(*(*obj)[i].second, *other[i].second))
                return false;
        return true;
    }
    return a.value == b.value;
}

/** Short rendering of a leaf value for drift messages. */
std::string
jsonText(const JsonValue &v)
{
    if (!v.raw.empty())
        return v.raw;
    if (const auto *s = std::get_if<std::string>(&v.value))
        return *s;
    if (const auto *b = std::get_if<bool>(&v.value))
        return *b ? "true" : "false";
    return "<non-scalar>";
}

/**
 * Exact two-way diff of one deterministic section ("counters" or
 * "histograms") of two run reports. Every key must exist in both
 * documents with a byte-identical value; each violation is one drift.
 */
int
diffSection(const JsonValue &baseline, const JsonValue &current,
            const std::string &section)
{
    const JsonValue *baseVal = baseline.field(section);
    const JsonValue *curVal = current.field(section);
    const auto *base =
        baseVal ? std::get_if<JsonObject>(&baseVal->value) : nullptr;
    const auto *cur =
        curVal ? std::get_if<JsonObject>(&curVal->value) : nullptr;
    if (!base || !cur)
        throw std::runtime_error("run report lacks a '" + section +
                                 "' object");
    int drift = 0;
    for (const auto &[key, value] : *base) {
        const JsonValue *other = curVal->field(key);
        if (!other) {
            std::cerr << "FAIL: " << section << "." << key
                      << " missing from current report (counter "
                         "drift)\n";
            ++drift;
        } else if (!jsonEqual(*value, *other)) {
            std::cerr << "FAIL: " << section << "." << key
                      << " drift: " << jsonText(*value) << " -> "
                      << jsonText(*other) << "\n";
            ++drift;
        }
    }
    for (const auto &[key, value] : *cur)
        if (!baseVal->field(key)) {
            std::cerr << "FAIL: " << section << "." << key
                      << " only in current report (counter drift)\n";
            ++drift;
        }
    return drift;
}

/** Compare the deterministic sections of two run reports. */
int
compareRunReports(const JsonValue &baseline, const JsonValue &current)
{
    int drift = diffSection(baseline, current, "counters");
    drift += diffSection(baseline, current, "histograms");
    if (drift) {
        std::cerr << drift << " drifting deterministic metric(s); "
                             "counters must match byte for byte.\n";
        return 1;
    }
    std::puts("deterministic counters identical; no drift.");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: bench_compare BASELINE.json CURRENT.json\n";
        return 1;
    }
    try {
        const std::string baselinePath = argv[1];
        const std::string currentPath = argv[2];
        const JsonValue baselineDoc = parseFile(baselinePath);
        const JsonValue currentDoc = parseFile(currentPath);

        const bool baseReport = isRunReport(baselineDoc);
        const bool curReport = isRunReport(currentDoc);
        if (baseReport != curReport)
            throw std::runtime_error(
                "cannot compare a run report against a hotpath "
                "artifact (one input has schema nisqpp.run-report, "
                "the other does not)");
        if (baseReport)
            return compareRunReports(baselineDoc, currentDoc);

        const auto baseline = loadHotpath(baselinePath, baselineDoc);
        const auto current = loadHotpath(currentPath, currentDoc);

        int drift = 0;
        drift += checkInternalBatchParity(baseline, baselinePath);
        drift += checkInternalBatchParity(current, currentPath);

        std::printf("%-16s %-3s %12s %12s %9s  %s\n", "decoder", "d",
                    "base tr/s", "curr tr/s", "speedup", "PL");
        for (const auto &[key, base] : baseline) {
            const auto it = current.find(key);
            if (it == current.end()) {
                std::cerr << "FAIL: row (" << key.first << ", d="
                          << key.second
                          << ") missing from " << currentPath << "\n";
                ++drift;
                continue;
            }
            const HotpathRow &cur = it->second;
            const bool plMatch =
                base.pl == cur.pl && base.trials == cur.trials;
            if (!plMatch) {
                std::cerr << "FAIL: (" << key.first << ", d="
                          << key.second << ") PL/trials drift: "
                          << base.pl << "/" << base.trials << " -> "
                          << cur.pl << "/" << cur.trials << "\n";
                ++drift;
            }
            const double speedup =
                base.trialsPerSec > 0
                    ? cur.trialsPerSec / base.trialsPerSec
                    : 0.0;
            std::printf("%-16s %-3s %12.4g %12.4g %8.2fx  %s\n",
                        key.first.c_str(), key.second.c_str(),
                        base.trialsPerSec, cur.trialsPerSec, speedup,
                        plMatch ? "ok" : "DRIFT");
        }
        for (const auto &[key, cur] : current)
            if (!baseline.count(key))
                std::printf("%-16s %-3s %12s %12.4g %9s  new row\n",
                            key.first.c_str(), key.second.c_str(), "-",
                            cur.trialsPerSec, "-");

        if (drift) {
            std::cerr << drift << " drifting row(s); physics columns "
                                  "must match byte for byte.\n";
            return 1;
        }
        std::puts("PL columns identical; no physics drift.");
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "bench_compare: " << e.what() << "\n";
        return 1;
    }
}
