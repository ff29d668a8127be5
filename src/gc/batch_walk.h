// Shared driver for the batched hashing pipeline's gate walk. Garbler
// and Evaluator defer exactly the same AND gates, so the flush schedule
// and capacity policy must stay in lock-step between them — this template
// is the single place that logic lives.
//
// Under GcOptions::schedule both endpoints pass the circuit's walked
// view (Circuit::gc_scheduled: width-scheduled order, wires renumbered
// into reusable label slots) here instead of the construction order;
// the walked circuit defines the table/tweak order, so the caller must
// hand both parties the identical view — the runtime handshake's
// fingerprint over the walked view enforces that across machines.
#pragma once

#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

#include "circuit/circuit.h"
#include "gc/garble.h"
#include "support/buffer_pool.h"

namespace deepsecure {

// ---------------------------------------------------------------------
// Dense window staging lines. One window's operands live in a single
// 64-byte-aligned allocation with power-of-two gate capacity; each
// operand class (labels, tweaks, hashes, table rows, output wires) is a
// contiguous segment starting on a cache-line boundary. The hash
// backends sweep the segments as flat arrays — no per-gate structs to
// gather from — and the same layout is what a launch-per-window GPU
// kernel would DMA: one linear copy in, one out.
// ---------------------------------------------------------------------

namespace detail {
struct WindowLineFree {
  void operator()(void* p) const { std::free(p); }
};
using WindowLineMem = std::unique_ptr<void, WindowLineFree>;

inline WindowLineMem window_line_alloc(size_t bytes) {
  // aligned_alloc requires the size be a multiple of the alignment.
  bytes = (bytes + 63) & ~size_t{63};
  void* p = std::aligned_alloc(64, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return WindowLineMem(p);
}
}  // namespace detail

/// Garbler-side staging line. Staging is per table row: a half-gates
/// AND stages two rows (generator half over a0, evaluator half over b0),
/// a one-row AND (kAndKnown) one row over b0. Per row: the zero-label the
/// row hashes, its tweak, its two hashes (gc_hash_pairs output) and the
/// row itself; per gate: its first row `rows[i]` (`rows[size]` = rows
/// staged so far, so a mixed one-row/two-row window finds a gate's rows
/// by lookup) and its output wire. Segment order puts the 16-byte Block
/// segments first, so every segment is cache-line aligned for any
/// power-of-two capacity >= 4.
struct GarbleWindowLine {
  /// Bytes one line of `cap` gates occupies — the slab size a zero-copy
  /// BufferPool must be built with.
  static constexpr size_t bytes_for(size_t cap) {
    return cap * (8 * sizeof(Block) + 2 * sizeof(uint64_t) + sizeof(Wire) +
                  sizeof(uint32_t)) +
           sizeof(uint32_t);
  }

  explicit GarbleWindowLine(size_t cap) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    mem_ = detail::window_line_alloc(bytes_for(cap));
    segment(static_cast<uint8_t*>(mem_.get()), cap);
  }

  /// Pool-backed line: the staging memory is a refcounted slab
  /// (support/buffer_pool.h), so the table-row segment can ship as a
  /// borrowed iovec slice with slab() pinning it — the zero-copy data
  /// plane. The slab recycles when the transport drops the last ref.
  GarbleWindowLine(size_t cap, BufferPool& pool) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    slab_ = pool.acquire();
    if (slab_.size() < bytes_for(cap))
      throw std::invalid_argument("window line: pool slab too small");
    segment(slab_.data(), cap);
  }

  /// Refcounted handle to the backing slab (empty for malloc-backed
  /// lines). Copy it into an IoSlice to pin the line across an
  /// asynchronous send.
  const BufferRef& slab() const { return slab_; }

  Block* x0;        // per row: the zero-label it hashes
  Block* hashes;    // per row: H(x0, t), H(x0 ^ delta, t)
  Block* tabs;      // per row: the garbled row
  uint64_t* tweaks; // per row
  Wire* outs;       // per gate
  uint32_t* rows;   // per gate: first row; rows[size] = rows staged
  size_t size = 0;
  size_t capacity;  // non-const so drained lines can be move-replaced

 private:
  void segment(uint8_t* base, size_t cap) {
    x0 = reinterpret_cast<Block*>(base);  // 2 per gate
    hashes = x0 + 2 * cap;                // 4 per gate
    tabs = hashes + 4 * cap;              // 2 per gate
    tweaks = reinterpret_cast<uint64_t*>(tabs + 2 * cap);  // 2 per gate
    outs = reinterpret_cast<Wire*>(tweaks + 2 * cap);
    rows = reinterpret_cast<uint32_t*>(outs + cap);  // cap + 1
    rows[0] = 0;
  }

  detail::WindowLineMem mem_;
  BufferRef slab_;
};

/// Evaluator-side staging line, per row like the garbler's: the active
/// label the row hashes, its tweak, its table row and hash; per gate its
/// first row and output wire. A one-row AND's row is pre-combined at
/// enqueue (see Evaluator::evaluate_gates_batched).
struct EvalWindowLine {
  explicit EvalWindowLine(size_t cap) : capacity(cap) {
    static_assert(sizeof(Block) == 16);
    const size_t bytes = cap * (6 * sizeof(Block) + 2 * sizeof(uint64_t) +
                                sizeof(Wire) + sizeof(uint32_t)) +
                         sizeof(uint32_t);
    mem_ = detail::window_line_alloc(bytes);
    auto* base = static_cast<uint8_t*>(mem_.get());
    ins = reinterpret_cast<Block*>(base);  // 2 per gate
    tabs = ins + 2 * cap;                  // 2 per gate
    hashes = tabs + 2 * cap;               // 2 per gate
    tweaks = reinterpret_cast<uint64_t*>(hashes + 2 * cap);  // 2 per gate
    outs = reinterpret_cast<Wire*>(tweaks + 2 * cap);
    rows = reinterpret_cast<uint32_t*>(outs + cap);  // cap + 1
    rows[0] = 0;
  }

  Block* ins;
  Block* tabs;
  Block* hashes;
  uint64_t* tweaks;
  Wire* outs;
  uint32_t* rows;
  size_t size = 0;
  const size_t capacity;

 private:
  detail::WindowLineMem mem_;
};

/// Walk `c.gates` in order. XOR gates invoke `on_xor(g)` immediately
/// (free-XOR). AND gates of either op invoke `on_and(g)` to enqueue into
/// the pending window; `flush(bool level_boundary)` drains it — called at the
/// circuit's precomputed dependency flush points and after the last
/// gate (level_boundary = true: a real barrier in the gate order, under
/// the width scheduler an AND-level boundary), and at
/// `kGcMaxBatchWindow` pending gates (level_boundary = false: a
/// capacity drain mid-level). The distinction only matters to consumers
/// that align a downstream unit to levels — table frame sizing — and
/// never changes which gates drain when, so both endpoints stay in
/// lock-step regardless of how they use it. `flush(...)` must be a
/// no-op on an empty window.
template <typename XorFn, typename AndFn, typename FlushFn>
void gc_batched_walk(const Circuit& c, XorFn&& on_xor, AndFn&& on_and,
                     FlushFn&& flush) {
  const auto flush_points = c.gc_flush_points();
  const uint32_t* fp = flush_points->data();
  const uint32_t* fp_end = fp + flush_points->size();

  size_t window = 0;
  for (uint32_t i = 0; i < static_cast<uint32_t>(c.gates.size()); ++i) {
    if (fp != fp_end && *fp == i) {
      flush(/*level_boundary=*/true);
      window = 0;
      ++fp;
    }
    const Gate& g = c.gates[i];
    if (g.op == GateOp::kXor) {
      on_xor(g);
      continue;
    }
    on_and(g);
    if (++window == kGcMaxBatchWindow) {
      flush(/*level_boundary=*/false);
      window = 0;
    }
  }
  flush(/*level_boundary=*/true);
}

}  // namespace deepsecure
