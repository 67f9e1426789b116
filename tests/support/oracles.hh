/**
 * @file
 * Reference implementations the equivalence tests pin the packed hot
 * paths against. Each is the straightforward algorithm the packed one
 * replaced; none is for hot paths.
 */

#ifndef NISQPP_TESTS_SUPPORT_ORACLES_HH
#define NISQPP_TESTS_SUPPORT_ORACLES_HH

#include "support/pauli_frame.hh"
#include "surface/error_state.hh"
#include "support/stabilizer_circuit.hh"
#include "surface/syndrome.hh"

namespace nisqpp {

/**
 * Per-ancilla neighbor-loop parity over the error bits, exactly the
 * pre-packed-substrate algorithm: what extractSyndrome() must equal
 * bit for bit.
 */
Syndrome extractSyndromeReference(const ErrorState &state, ErrorType type);

/**
 * Execute @p circuit's gate schedule for the family detecting @p type
 * op by op on the Pauli-frame simulator: what
 * StabilizerCircuit::measure() must equal for any frame.
 */
Syndrome measureViaSchedule(const StabilizerCircuit &circuit,
                            PauliFrame &frame, ErrorType type);

} // namespace nisqpp

#endif // NISQPP_TESTS_SUPPORT_ORACLES_HH
