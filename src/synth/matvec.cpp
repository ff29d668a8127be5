#include "synth/matvec.h"

#include <stdexcept>

#include "synth/mult.h"

namespace deepsecure::synth {

Bus dot(Builder& b, const std::vector<Bus>& x, const std::vector<Bus>& w,
        size_t frac) {
  return dot_masked(b, x, w, std::vector<uint8_t>(x.size(), 1), frac);
}

Bus dot_masked(Builder& b, const std::vector<Bus>& x,
               const std::vector<Bus>& w, const std::vector<uint8_t>& mask,
               size_t frac) {
  if (x.size() != w.size() || x.size() != mask.size())
    throw std::invalid_argument("dot size mismatch");
  if (x.empty()) throw std::invalid_argument("dot of nothing");
  const size_t n = x[0].size();

  Bus acc;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!mask[i]) continue;  // pruned connection: no gates at all
    const Bus term = mult_wide(b, x[i], w[i], frac);
    acc = acc.empty() ? term : add(b, acc, term);
  }
  return acc.empty() ? constant_bus(b, 0, n) : slice(acc, frac, n);
}

Circuit make_matvec_circuit(size_t m, size_t n, FixedFormat fmt) {
  Builder b("matvec_" + std::to_string(m) + "x" + std::to_string(n));
  std::vector<Bus> x(m);
  for (auto& bus : x) bus = input_fixed(b, Party::kGarbler, fmt);
  for (size_t col = 0; col < n; ++col) {
    std::vector<Bus> w(m);
    for (auto& bus : w) bus = input_fixed(b, Party::kEvaluator, fmt);
    // One lane per output column: the columns are mutually independent,
    // so the scheduler interleaves their multiplier/adder bit-slices
    // into wide AND windows.
    b.set_lane(static_cast<uint32_t>(col));
    b.outputs(dot(b, x, w, fmt.frac_bits));
  }
  return b.build();
}

Circuit make_mac_step_circuit(FixedFormat fmt) {
  Builder b("mac_step");
  const Bus x = input_fixed(b, Party::kGarbler, fmt);
  const Bus w = input_fixed(b, Party::kEvaluator, fmt);
  const Bus acc = b.state_inputs(fmt.total_bits + fmt.frac_bits);
  const Bus next = add(b, acc, mult_wide(b, x, w, fmt.frac_bits));
  b.set_state_next(next);
  b.outputs(slice(next, fmt.frac_bits, fmt.total_bits));
  return b.build();
}

}  // namespace deepsecure::synth
