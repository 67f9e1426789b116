/**
 * @file
 * Clifford+T decomposition. The benchmarks of Table I are Toffoli
 * networks; fault-tolerant execution expands each Toffoli into the
 * textbook 7-T circuit (2 H, 6 CNOT, 7 T/Tdg — 15 gates). The paper's
 * "total gates" column is consistent with a 17-gate Toffoli expansion
 * (two extra phase-fix gates); the bench reports both budgets and the
 * T counts match exactly.
 */

#ifndef NISQPP_CIRCUITS_DECOMPOSE_HH
#define NISQPP_CIRCUITS_DECOMPOSE_HH

#include "circuits/circuit.hh"

namespace nisqpp {

/** Gates emitted per Toffoli by the textbook 7-T decomposition. */
constexpr int kToffoliGates = 15;

/** Gate budget per Toffoli implied by the paper's Table I totals. */
constexpr int kToffoliGatesPaper = 17;

/** T gates per Toffoli. */
constexpr int kToffoliTCount = 7;

/**
 * Expand every Toffoli of @p circuit into Clifford+T.
 *
 * @return A new circuit on the same register with no Toffoli gates.
 */
QCircuit decomposeToffoli(const QCircuit &circuit);

/**
 * T count of @p circuit after decomposition, without materializing it.
 */
std::size_t decomposedTCount(const QCircuit &circuit);

/** Total gate count after decomposition under a per-Toffoli budget. */
std::size_t decomposedGateCount(const QCircuit &circuit,
                                int toffoli_budget = kToffoliGates);

} // namespace nisqpp

#endif // NISQPP_CIRCUITS_DECOMPOSE_HH
