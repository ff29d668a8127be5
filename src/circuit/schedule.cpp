#include "circuit/schedule.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace deepsecure {
namespace {

// Round-robin interleave of one level's AND gates across lane tags,
// in place over a gate_map slice: lane-major runs (all of column 0,
// then all of column 1, ...) become alternating picks, so
// capacity-split windows mix lanes evenly. Single-lane slices keep
// original order.
void interleave_by_lane(uint32_t* begin, uint32_t* end,
                        const std::vector<uint32_t>& lanes) {
  const size_t n = static_cast<size_t>(end - begin);
  if (n < 2) return;
  std::unordered_map<uint32_t, size_t> group_of;  // lane -> groups slot
  std::vector<std::vector<uint32_t>> groups;      // first-appearance order
  for (uint32_t* p = begin; p != end; ++p) {
    const auto [it, fresh] = group_of.try_emplace(lanes[*p], groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(*p);
  }
  if (groups.size() < 2) return;
  uint32_t* out = begin;
  for (size_t round = 0; out != end; ++round)
    for (const auto& g : groups)
      if (round < g.size()) *out++ = g[round];
}

// The levelized gate order shared by schedule_circuit and walk_view:
// gate_map[i] = original index of the gate at scheduled position i.
std::vector<uint32_t> levelize(const Circuit& c) {
  const size_t n = c.gates.size();

  // Pass 1: AND-depth levels. Inputs and constants sit at level 0; an
  // AND's output is one level past its deepest input, a free XOR's
  // output stays at its deepest input's level. Each gate's sort key
  // puts the level's XORs before its ANDs.
  std::vector<uint32_t> wire_level(c.num_wires, 0);
  std::vector<uint32_t> key(n);
  uint32_t max_level = 0;
  for (size_t i = 0; i < n; ++i) {
    const Gate& g = c.gates[i];
    const uint32_t lvl = std::max(wire_level[g.a], wire_level[g.b]);
    const bool is_and = g.op != GateOp::kXor;
    key[i] = 2 * lvl + (is_and ? 1 : 0);
    wire_level[g.out] = lvl + (is_and ? 1 : 0);
    max_level = std::max(max_level, lvl);
  }

  // Pass 2: stable counting sort by key — the levelized order.
  // Correctness: a level-L gate's inputs come from levels <= L;
  // same-level producers can only be XORs (a same-level AND's output
  // would be level L+1), which sort earlier in the level, and stability
  // keeps same-level XOR chains in their original (topological) order.
  // Width: all ANDs of a level are independent, so the only same-level
  // drain is the capacity cap.
  std::vector<uint32_t> offset(2 * (max_level + 1) + 1, 0);
  for (size_t i = 0; i < n; ++i) ++offset[key[i] + 1];
  for (size_t k = 1; k < offset.size(); ++k) offset[k] += offset[k - 1];

  std::vector<uint32_t> gate_map(n);
  {
    std::vector<uint32_t> pos(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < n; ++i)
      gate_map[pos[key[i]]++] = static_cast<uint32_t>(i);
  }

  // Pass 3: lane interleave within each level's AND run.
  if (!c.gate_lanes.empty())
    for (uint32_t lvl = 0; lvl <= max_level; ++lvl)
      interleave_by_lane(gate_map.data() + offset[2 * lvl + 1],
                         gate_map.data() + offset[2 * lvl + 2],
                         c.gate_lanes);
  return gate_map;
}

}  // namespace

ScheduleResult schedule_circuit(const Circuit& c) {
  const size_t n = c.gates.size();
  ScheduleResult r;
  r.gate_map = levelize(c);

  // Wires, inputs, outputs, and state bindings are unchanged; only the
  // gate list (and its lane tags) is gathered through the permutation.
  Circuit& s = r.circuit;
  s.name = c.name;
  s.garbler_inputs = c.garbler_inputs;
  s.evaluator_inputs = c.evaluator_inputs;
  s.state_inputs = c.state_inputs;
  s.state_next = c.state_next;
  s.outputs = c.outputs;
  s.num_wires = c.num_wires;
  s.gates.resize(n);
  if (!c.gate_lanes.empty()) s.gate_lanes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s.gates[i] = c.gates[r.gate_map[i]];
    if (!c.gate_lanes.empty()) s.gate_lanes[i] = c.gate_lanes[r.gate_map[i]];
  }
  return r;
}

namespace {

// walk_view's two passes over a levelized order, split so walk_chain
// can free the construction-order netlist between them. Both prefetch
// a few dozen gates ahead: the gather reads `c.gates` through the
// permutation, the renaming reads `slot` by wire id, and either misses
// cache on nearly every access otherwise.
constexpr uint8_t kLastA = 1, kLastB = 2, kDead = 4;
constexpr size_t kAhead = 32;

// Backward gather: returns `c`'s gates in walk order (wire ids not yet
// renamed) and each position's last-read flags in `flags`.
// Walking the order from its end, the first time a wire is seen as an
// operand is its last read. `seen` is a bitmap (1 bit per wire,
// cache-resident); the constants, inputs, outputs and state_next wires
// start seen, so they are never freed.
Circuit gather(const Circuit& c, const std::vector<uint32_t>& gate_map,
               std::vector<uint8_t>& flags) {
  const size_t n = c.gates.size();
  std::vector<uint64_t> seen((c.num_wires + 63) / 64, 0);
  auto first_sight = [&seen](Wire w) {
    uint64_t& word = seen[w >> 6];
    const uint64_t bit = uint64_t{1} << (w & 63);
    const bool first = (word & bit) == 0;
    word |= bit;
    return first;
  };
  for (Wire w : {kConst0, kConst1}) first_sight(w);
  for (const auto* v : {&c.garbler_inputs, &c.evaluator_inputs,
                        &c.state_inputs, &c.outputs, &c.state_next})
    for (Wire w : *v) first_sight(w);

  Circuit s;
  s.name = c.name;
  s.gates.resize(n);
  flags.resize(n);
  for (size_t i = n; i-- > 0;) {
    if (i >= kAhead) __builtin_prefetch(&c.gates[gate_map[i - kAhead]]);
    const Gate& g = c.gates[gate_map[i]];
    s.gates[i] = g;
    // Walking backward, an output not seen yet has no reader at all.
    uint8_t f = (seen[g.out >> 6] >> (g.out & 63)) & 1 ? 0 : kDead;
    if (first_sight(g.a)) f |= kLastA;
    if (first_sight(g.b)) f |= kLastB;  // a == b: marked once, as a
    flags[i] = f;
  }
  return s;
}

// Forward renaming of the gathered view `s` into label slots under the
// slot rule; `c` supplies only the interface (inputs, outputs, state)
// and its wire count.
void assign_slots(const Circuit& c, const std::vector<uint8_t>& flags,
                  Circuit& s) {
  const size_t n = s.gates.size();
  std::vector<Wire> slot(c.num_wires);  // wire -> slot
  Wire next = 2;
  slot[kConst0] = kConst0;
  slot[kConst1] = kConst1;
  auto bind = [&](const std::vector<Wire>& from, std::vector<Wire>& to) {
    to.resize(from.size());
    for (size_t i = 0; i < from.size(); ++i) to[i] = slot[from[i]] = next++;
  };
  bind(c.garbler_inputs, s.garbler_inputs);
  bind(c.evaluator_inputs, s.evaluator_inputs);
  bind(c.state_inputs, s.state_inputs);

  std::vector<Wire> free_slots;
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) {
      __builtin_prefetch(&slot[s.gates[i + kAhead].a]);
      __builtin_prefetch(&slot[s.gates[i + kAhead].b]);
    }
    Gate& g = s.gates[i];
    const uint8_t f = flags[i];
    g.a = slot[g.a];
    g.b = slot[g.b];
    if (f & kLastA) free_slots.push_back(g.a);
    if (f & kLastB) free_slots.push_back(g.b);
    Wire out;
    if (free_slots.empty()) {
      out = next++;
    } else {
      out = free_slots.back();
      free_slots.pop_back();
    }
    if ((f & kDead) && g.op == GateOp::kXor) free_slots.push_back(out);
    slot[g.out] = out;
    g.out = out;
  }

  auto rename = [&](const std::vector<Wire>& from, std::vector<Wire>& to) {
    to.resize(from.size());
    for (size_t i = 0; i < from.size(); ++i) to[i] = slot[from[i]];
  };
  rename(c.outputs, s.outputs);
  rename(c.state_next, s.state_next);
  s.num_wires = next;
}

template <class T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

Circuit walk_view(const Circuit& c) {
  if (c.walked()) return c;
  std::vector<uint8_t> flags;
  Circuit s = gather(c, levelize(c), flags);
  assign_slots(c, flags, s);
  s.walked_ = true;
  return s;
}

std::vector<Circuit> walk_chain(std::vector<Circuit> chain) {
  for (Circuit& c : chain) {
    if (c.walked()) continue;
    std::vector<uint32_t> gate_map = levelize(c);
    release(c.gate_lanes);
    std::vector<uint8_t> flags;
    Circuit s = gather(c, gate_map, flags);
    release(c.gates);
    release(gate_map);
    assign_slots(c, flags, s);
    s.walked_ = true;
    c = std::move(s);
  }
  return chain;
}

std::shared_ptr<const Circuit> Circuit::gc_scheduled() const {
  // Aliasing constructor over an empty owner: shares no ownership, so
  // the pointer is valid exactly as long as this circuit.
  if (walked_)
    return std::shared_ptr<const Circuit>(std::shared_ptr<const Circuit>(),
                                          this);
  std::lock_guard<std::mutex> lock(cache_lock_.mu);
  if (!gc_sched_cache_ || gc_sched_cache_gates_ != gates.size()) {
    gc_sched_cache_ = std::make_shared<const Circuit>(walk_view(*this));
    gc_sched_cache_gates_ = gates.size();
  }
  return gc_sched_cache_;
}

WindowStats window_stats(const Circuit& c, size_t capacity) {
  const auto flush_points = c.gc_flush_points();
  const uint32_t* fp = flush_points->data();
  const uint32_t* fp_end = fp + flush_points->size();

  WindowStats s;
  s.flush_points = flush_points->size();
  std::vector<size_t> widths;
  size_t window = 0;
  auto drain = [&]() {
    if (window == 0) return;
    widths.push_back(window);
    window = 0;
  };
  for (uint32_t i = 0; i < static_cast<uint32_t>(c.gates.size()); ++i) {
    if (fp != fp_end && *fp == i) {
      drain();
      ++fp;
    }
    if (c.gates[i].op == GateOp::kXor) continue;
    ++s.and_gates;
    if (++window == capacity) drain();
  }
  drain();

  s.windows = widths.size();
  if (widths.empty()) return s;
  s.mean = static_cast<double>(s.and_gates) / static_cast<double>(s.windows);
  std::sort(widths.begin(), widths.end());
  s.p50 = widths[widths.size() / 2];
  s.p95 = widths[std::min(widths.size() - 1, (widths.size() * 95) / 100)];
  s.max = widths.back();
  return s;
}

}  // namespace deepsecure
