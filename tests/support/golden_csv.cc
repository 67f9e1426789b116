#include "support/golden_csv.hh"

#include <algorithm>
#include <sstream>

namespace nisqpp {

namespace {

/** Columns whose values depend on the host's wall clock. */
const std::vector<std::string> kMaskedColumns{
    "host ms", "trials/s", "ns/decode"};

/** Row keys whose values depend on the build type, not the physics. */
const std::vector<std::string> kMaskedRowKeys{"assertions"};

/** What a masked cell reads after sanitize(). */
const std::string kMask = "-";

std::string
joinCells(const std::vector<std::string> &cells)
{
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            line += ',';
        line += cells[i];
    }
    return line;
}

} // namespace

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream is(line);
    while (std::getline(is, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    return cells;
}

std::string
sanitize(const std::string &csv)
{
    std::istringstream is(csv);
    std::ostringstream os;
    std::string line;
    std::vector<std::size_t> masked; // column indices of current table
    bool expectHeader = false;
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] == '#') {
            expectHeader = true; // next line is the table header
            masked.clear();
            os << line << '\n';
            continue;
        }
        std::vector<std::string> cells = splitCells(line);
        if (expectHeader) {
            expectHeader = false;
            for (std::size_t c = 0; c < cells.size(); ++c) {
                for (const std::string &name : kMaskedColumns)
                    if (cells[c] == name)
                        masked.push_back(c);
                // Whole masked metric namespaces: any column carrying
                // a timing.* span summary or sched.* scheduling counter is
                // host wall clock by definition and must never be
                // golden-compared.
                if (cells[c].rfind("timing.", 0) == 0 ||
                    cells[c].rfind("sched.", 0) == 0)
                    masked.push_back(c);
            }
            os << line << '\n';
            continue;
        }
        for (std::size_t c : masked)
            if (c < cells.size())
                cells[c] = kMask;
        if (!cells.empty())
            for (const std::string &key : kMaskedRowKeys)
                if (cells[0] == key)
                    std::fill(cells.begin() + 1, cells.end(), kMask);
        os << joinCells(cells) << '\n';
    }
    return os.str();
}

} // namespace nisqpp
