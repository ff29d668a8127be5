// Width-aware netlist rescheduling — the compiler stage between circuit
// construction and garbling.
//
// The batched hashing pipeline (gc/batch_walk.h) drains its pending
// AND-gate window whenever a gate reads a wire produced by a
// still-pending AND. Builders and the synth layer emit gates in
// construction order — lane by lane, carry chain by carry chain — so on
// arithmetic netlists the window flushes every few gates and the AES
// pipeline never fills. This pass rewrites a topologically-ordered
// Circuit into a width-maximizing order:
//
//   * levelized list scheduling: every gate is assigned an AND-depth
//     level (the number of AND gates on its longest input path), and
//     gates are emitted level by level. All AND gates of one level are
//     mutually independent — one matvec's carry chains interleave
//     across all lanes/bit-slices into a single wide batch window.
//   * deferred free-XOR: within a level, XOR gates are emitted before
//     the level's ANDs. An XOR consuming a previous level's AND output
//     therefore lands exactly at the level boundary where the window
//     must drain anyway — XOR consumers never force an extra flush.
//
// The result is one dependency flush per AND level (the netlist's
// multiplicative depth) instead of one per construction-order hazard.
//
// Two products share the levelized order:
//
//   * schedule_circuit() returns it in SSA form (every wire written
//     exactly once): wire ids are untouched — only the gate list and
//     its lane tags are permuted — so inputs, outputs, state bindings
//     and the plaintext oracle (Circuit::eval) are unchanged, and
//     validate() holds. The reference the tests compare against.
//   * walk_view() renumbers the same order's wires into label slots: a
//     slot goes to a new gate output as soon as its previous occupant's
//     last reader has run. Garbling allocates one label per slot
//     instead of one per wire. The view carries no lane tags and is
//     marked walked (Circuit::walked), so it is its own gc_scheduled()
//     and is never walked again.
//
// One netlist per party. walk_chain() turns a compiled chain into its
// walked views, freeing each construction-order layer as it goes; it
// is how every runtime endpoint (and secure_infer) builds the chain it
// keeps, so a party holds the walked view only. Circuit::gc_scheduled
// remains the lazily cached walk for library and test callers that
// hold a construction-order circuit.
//
// Slot rule. Reads happen at a gate's position in the walk; an AND's
// output lands later, at its window's flush.
//   * a slot is freed right after its occupant's last reader;
//   * an XOR output nobody reads goes straight back to the free list;
//   * an AND output nobody reads keeps a slot of its own (its late
//     write must not land on a slot someone else holds by then);
//   * constants, inputs, outputs and state_next wires are never freed.
// A pending AND's output is only read after a dependency flush, so no
// two pending ANDs share an output slot and the view's flush points
// equal the SSA order's.
//
// Invariants:
//   * the schedule is a pure, deterministic function of the gate list
//     (plus optional lane tags), so two endpoints that compiled the
//     same netlist compute the same order and slots. The protocol's
//     table stream and tweak sequence follow gate order, so both
//     parties MUST walk the same view — the chain fingerprint is
//     computed over it and cross-checked in the runtime handshake.
//   * the table stream, tweaks, flush points and decoded outputs of
//     the walked view are byte-identical to walking schedule_circuit's
//     SSA order; slots change only which label memory holds a value.
//   * every runtime endpoint walks this view. GcOptions::schedule =
//     false walks a circuit as given: construction order on a compiled
//     circuit — a test seam only, the correctness oracle test_schedule
//     and test_runtime compare the walked view against — and the same
//     bytes as schedule = true on a walked one.
#pragma once

#include <vector>

#include "circuit/circuit.h"

namespace deepsecure {

struct ScheduleResult {
  /// Same circuit, gates permuted into the levelized order (gate_lanes
  /// permuted alongside). validate() holds on the result.
  Circuit circuit;
  /// gate_map[i] = original index of the gate at scheduled position i.
  std::vector<uint32_t> gate_map;
};

/// Reschedule `c` (see file header). O(gates + wires) time and memory.
ScheduleResult schedule_circuit(const Circuit& c);

/// The walked view of `c`: schedule_circuit's gate order with wires
/// renumbered into label slots under the slot rule (see file header);
/// `num_wires` is the slot count. No lane tags. validate() does not
/// hold (slots are rewritten), but eval() and garbling do. The result
/// is walked(); on an already-walked `c` it is a copy of `c`. O(gates +
/// wires) time and memory.
Circuit walk_view(const Circuit& c);

/// `chain` with every link replaced by its walked view, consuming the
/// links as it goes: a link's lane tags are freed right after
/// levelizing, its construction gate list (and the permutation) right
/// after the backward gather, so a layer's construction order and its
/// view coexist only during that gather. Each result equals
/// walk_view(link) gate for gate and is walked(); already-walked links
/// pass through unchanged.
std::vector<Circuit> walk_chain(std::vector<Circuit> chain);

/// Batch-window shape of a gate order: simulates the batched walk
/// (dependency flush points + a `capacity` cap, kGcMaxBatchWindow in
/// the real pipeline) and reports the AND-gate width of every drained
/// window. The schedule quality metric for benches and regressions.
struct WindowStats {
  size_t and_gates = 0;
  size_t windows = 0;       // drain events with at least one AND
  size_t flush_points = 0;  // dependency flushes in the gate order
  double mean = 0.0;        // AND gates per window
  size_t p50 = 0;
  size_t p95 = 0;
  size_t max = 0;
};

WindowStats window_stats(const Circuit& c, size_t capacity);

}  // namespace deepsecure
