#include "cost/cost_model.h"

#include <algorithm>

namespace deepsecure::cost {

NetworkCost cost_from_gates(const synth::GateCount& g, const GcCostParams& p) {
  NetworkCost c;
  c.num_xor = g.num_xor;
  c.num_non_xor = g.num_non_xor;
  c.comm_bytes = static_cast<double>(g.comm_bytes());
  const double non_xor_equiv = static_cast<double>(g.num_non_xor) -
                               0.5 * static_cast<double>(g.num_one_row);
  c.comp_seconds = (static_cast<double>(g.num_xor) * p.clk_per_xor +
                    non_xor_equiv * p.clk_per_non_xor) /
                   p.f_cpu_hz;
  c.exec_seconds =
      std::max(c.comm_bytes / p.bandwidth_bytes_per_s, c.comp_seconds);
  return c;
}

NetworkCost cost_of_model(const synth::ModelSpec& spec, const GcCostParams& p) {
  return cost_from_gates(synth::count_model(spec), p);
}

}  // namespace deepsecure::cost
