// Boolean circuit intermediate representation ("netlist").
//
// The GC protocol requires the function to be a topologically-sorted list
// of 2-input gates. With the free-XOR optimization the only gate classes
// that matter are XOR (free) and AND (2 ciphertexts via half-gates, or 1
// when the evaluator knows an operand in plaintext); the builder lowers
// NOT/OR/XNOR/... onto this basis. Wires 0 and 1 are the public
// constants 0 and 1.
//
// Inputs are partitioned by owner, matching the paper's roles:
//   * garbler inputs   — the client's private data sample (Alice)
//   * evaluator inputs — the server's private model parameters (Bob)
// plus `state` inputs for sequential (folded) circuits, which carry values
// across clock cycles (TinyGarble-style, Section 3.5 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "support/bits.h"

namespace deepsecure {

using Wire = uint32_t;

inline constexpr Wire kConst0 = 0;
inline constexpr Wire kConst1 = 1;

/// kAndKnown is an AND whose `b` operand the evaluator knows in
/// plaintext: an evaluator input, or an XOR of two such wires (never a
/// constant or an AND output). It garbles as half-gates' evaluator half
/// alone — one 16-byte row, one tweak — and is otherwise an AND
/// everywhere (levels, windows, flush points). The Builder picks it for
/// an AND with exactly one known operand; validate() rejects one whose
/// `b` is not known.
enum class GateOp : uint8_t { kXor = 0, kAnd = 1, kAndKnown = 2 };

struct Gate {
  Wire a = 0;
  Wire b = 0;
  Wire out = 0;
  GateOp op = GateOp::kXor;
};

struct CircuitStats {
  uint64_t num_xor = 0;        // free under free-XOR
  uint64_t num_and = 0;        // non-XOR, both AND ops
  uint64_t num_and_known = 0;  // the kAndKnown subset of num_and
  uint64_t num_wires = 0;
  uint64_t num_inputs = 0;
  uint64_t num_outputs = 0;

  uint64_t non_xor() const { return num_and; }
  /// Bytes of garbled tables transferred: two 16-byte half-gates rows
  /// per kAnd, one per kAndKnown.
  uint64_t table_bytes() const {
    return 32 * (num_and - num_and_known) + 16 * num_and_known;
  }
};

namespace detail {
/// The lock guarding one Circuit's derived-view caches. Copies and
/// moves construct a fresh, unlocked mutex, so Circuit stays copyable
/// and movable and no two circuits ever share a lock. noexcept keeps
/// Circuit nothrow-movable: std::vector<Circuit> would otherwise copy
/// every netlist when it grows.
struct CacheLock {
  CacheLock() = default;
  CacheLock(const CacheLock&) noexcept {}
  CacheLock& operator=(const CacheLock&) noexcept { return *this; }
  std::mutex mu;
};
}  // namespace detail

class Circuit {
 public:
  Circuit() = default;
  // Copies do NOT inherit the derived-view caches: reading another
  // circuit's cache members outside its lock would race with a
  // concurrent garbler warming them. The copy recomputes lazily on
  // first garbling. Moves transfer them (moving an object in concurrent
  // use is already a caller bug); the lock itself is never shared.
  Circuit(const Circuit& o) { *this = o; }
  Circuit& operator=(const Circuit& o);
  Circuit(Circuit&&) = default;
  Circuit& operator=(Circuit&&) = default;

  std::string name;

  std::vector<Gate> gates;               // topological order
  /// Optional lane tags, parallel to `gates` (empty = untagged). A lane
  /// groups gates belonging to one independent unit of work — a matvec
  /// column, an FC output neuron, a conv output pixel — and the
  /// scheduling pass (circuit/schedule.h) interleaves same-level AND
  /// gates round-robin across lanes. Set via Builder::set_lane.
  std::vector<uint32_t> gate_lanes;
  std::vector<Wire> garbler_inputs;      // client data wires
  std::vector<Wire> evaluator_inputs;    // server parameter wires
  std::vector<Wire> state_inputs;        // sequential state (cycle t-1)
  std::vector<Wire> state_next;          // wires feeding state at cycle t+1
  std::vector<Wire> outputs;

  Wire num_wires = 2;  // wires 0/1 reserved for constants

  CircuitStats stats() const;

  /// Plaintext evaluation: reference semantics for every consumer
  /// (tests, gate-level debugging, the GC engine correctness oracle).
  /// `state` is both input (cycle t-1 values) and output (state_next).
  BitVec eval(const BitVec& garbler_bits, const BitVec& evaluator_bits,
              BitVec* state = nullptr) const;

  /// Throws std::logic_error when gates are not topologically ordered,
  /// reference out-of-range wires, inputs alias each other, or a
  /// kAndKnown's `b` is not evaluator-known.
  void validate() const;

  /// Flush schedule for the batched garbling pipeline: the sorted gate
  /// indices before which a pending AND-hash window must be drained
  /// because that gate reads a wire produced by a still-pending AND.
  /// Computed lazily from `gates` and cached (thread-safe), so repeated
  /// garblings of the same netlist — the online phase — skip the
  /// dependency scan. A gate-count change (e.g. appending gates after a
  /// garbling) invalidates the cache, but in-place edits that keep the
  /// count are undetected — treat `gates` as frozen once garbling starts.
  std::shared_ptr<const std::vector<uint32_t>> gc_flush_points() const;

  /// The walked view of this circuit (walk_view in circuit/schedule.h):
  /// gates in the levelized batch-window-maximizing order, wires
  /// renumbered into reusable label slots, so `num_wires` is the slot
  /// count a garbling allocates. On a construction-order circuit it is
  /// computed lazily and cached with the same thread-safety and
  /// invalidation rules as gc_flush_points(); the view carries its own
  /// (lazily cached) flush schedule, so repeated garblings reuse both.
  /// On a walked circuit (walk_chain's links, what every runtime
  /// endpoint holds) it is the circuit itself: a non-owning alias, no
  /// lock, no cache — walking a view again would not be a no-op.
  std::shared_ptr<const Circuit> gc_scheduled() const;

  /// True on a walked view (set only by walk_view / walk_chain; copies
  /// and moves keep it). Its gates are already in walk order and its
  /// wires are label slots, so it is never walked again.
  bool walked() const { return walked_; }

 private:
  friend Circuit walk_view(const Circuit& c);
  friend std::vector<Circuit> walk_chain(std::vector<Circuit> chain);

  bool walked_ = false;
  // Held across each cache's compute, so the garbler and evaluator
  // threads of one in-process run never both pay it.
  mutable detail::CacheLock cache_lock_;
  mutable std::shared_ptr<const std::vector<uint32_t>> gc_flush_cache_;
  mutable size_t gc_flush_cache_gates_ = 0;
  mutable std::shared_ptr<const Circuit> gc_sched_cache_;
  mutable size_t gc_sched_cache_gates_ = 0;
};

static_assert(std::is_nothrow_move_constructible_v<Circuit>);

/// Multi-cycle (sequential) execution of a folded circuit. The state is
/// initialized to all zeros at cycle 0. Per-cycle inputs are concatenated
/// slices: garbler_bits/evaluator_bits hold `cycles` consecutive blocks.
BitVec eval_sequential(const Circuit& step, size_t cycles,
                       const BitVec& garbler_bits,
                       const BitVec& evaluator_bits);

}  // namespace deepsecure
