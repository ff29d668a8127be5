// Text netlist serialization.
//
// The paper's toolchain emits synthesized netlists that the GC engine
// consumes. We mirror that hand-off with a simple line-oriented format so
// netlists can be inspected, diffed, archived, and re-loaded without
// rebuilding the generator:
//
//   netlist <name>
//   wires <num_wires>
//   in G <wire...>        # garbler inputs
//   in E <wire...>        # evaluator inputs
//   in S <wire...>        # state inputs
//   gate XOR <a> <b> <out>
//   gate AND <a> <b> <out>
//   gate ANDK <a> <b> <out>   # one-row AND: <b> is evaluator-known
//   next <wire...>        # state_next
//   out <wire...>
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/circuit.h"

namespace deepsecure {

void write_netlist(std::ostream& os, const Circuit& c);
std::string netlist_to_string(const Circuit& c);

/// Parses the format above; throws std::runtime_error on malformed input
/// and std::logic_error (Circuit::validate) on a structurally invalid
/// netlist, e.g. an ANDK whose <b> is not evaluator-known.
Circuit read_netlist(std::istream& is);
Circuit netlist_from_string(const std::string& text);

}  // namespace deepsecure
