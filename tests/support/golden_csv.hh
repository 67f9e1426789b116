/**
 * @file
 * The golden suite's view of a scenario's CSV output: host-timing and
 * build-marker cells masked, so two runs compare on physics alone.
 */

#ifndef NISQPP_TESTS_SUPPORT_GOLDEN_CSV_HH
#define NISQPP_TESTS_SUPPORT_GOLDEN_CSV_HH

#include <string>
#include <vector>

namespace nisqpp {

/** The comma-separated cells of one CSV line (a trailing comma ends
 *  in an empty cell). */
std::vector<std::string> splitCells(const std::string &line);

/**
 * Replace host-timing and build-marker cells with "-": the columns
 * "host ms", "trials/s", "ns/decode" and any timing.* or sched.*
 * column, and every cell of an "assertions" row.
 */
std::string sanitize(const std::string &csv);

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_GOLDEN_CSV_HH
