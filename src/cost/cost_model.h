// GC cost model — Table 2 of the paper.
//
//   Tcomp = (N_XOR * C_XOR + N_nonXOR * C_nonXOR) / f_CPU
//   Tcomm = N_nonXOR * 2 * 128 bit / BW     (only garbled tables travel)
//   Texec = max(Tcomm, Tcomp)               (phases pipeline, Figure 5)
//
// Row sizes are fixed, not tunable: a half-gates AND ships 2 x 128 bit
// and a one-row AND (an operand the evaluator knows, GateCount::
// num_one_row) 1 x 128 bit. In Tcomp a one-row AND counts as half a
// non-XOR: the garbler computes 2 of a half-gates AND's 4 hashes. The
// paper's counts contain no one-row ANDs, so its rows reproduce as
// published.
//
// Defaults pin the paper's measured constants (Section 4.3: 62 clks/XOR,
// 164 clks/non-XOR on an i7-2600 @ 3.4 GHz; effective bandwidth implied
// by Table 4 is ~81.8 MB/s) so the tables regenerate on any host;
// calibration.h measures this host's actual per-gate costs.
#pragma once

#include "synth/gate_count.h"

namespace deepsecure::cost {

struct GcCostParams {
  double clk_per_xor = 62.0;
  double clk_per_non_xor = 164.0;
  double f_cpu_hz = 3.4e9;
  double bandwidth_bytes_per_s = 81.8e6;
};

struct NetworkCost {
  uint64_t num_xor = 0;
  uint64_t num_non_xor = 0;
  double comm_bytes = 0.0;
  double comp_seconds = 0.0;
  double exec_seconds = 0.0;
};

NetworkCost cost_from_gates(const synth::GateCount& g,
                            const GcCostParams& p = {});

NetworkCost cost_of_model(const synth::ModelSpec& spec,
                          const GcCostParams& p = {});

}  // namespace deepsecure::cost
