// Matrix-vector product circuits (the FC/convolution workhorse, and the
// A(1xm) x B(mxn) row of Table 3), including the sparse variant that
// skips pruned connections (DL network pre-processing, Section 3.2.2:
// the sparsity map is public, the weight values stay private).
//
// A dot product accumulates its full products (mult_wide) mod
// 2^(n+frac) and truncates once: the result is bits [frac, frac+n) of
// the sum, floor(sum x*w / 2^frac) mod 2^n, which is
// Fixed::from_product_sum (accumulate-then-truncate, as in SecureML and
// MiniONN). It is never less accurate than truncating every product.
#pragma once

#include <optional>

#include "synth/int_blocks.h"

namespace deepsecure::synth {

/// Fixed-point dot product of equal-length bus vectors, truncated once.
Bus dot(Builder& b, const std::vector<Bus>& x, const std::vector<Bus>& w,
        size_t frac);

/// Dot product with a public sparsity mask: terms with mask[i] == false
/// are not instantiated at all (no MULT, no ADD — the paper's gate-count
/// saving from pruning).
Bus dot_masked(Builder& b, const std::vector<Bus>& x,
               const std::vector<Bus>& w, const std::vector<uint8_t>& mask,
               size_t frac);

/// Standalone A(1xm) x B(mxn) benchmark circuit: the garbler supplies the
/// m-vector, the evaluator supplies the m x n matrix (column-major input
/// order), outputs n fixed-point words.
Circuit make_matvec_circuit(size_t m, size_t n, FixedFormat fmt);

/// One-MAC sequential (folded) matvec step circuit (Section 3.5): per
/// cycle the garbler feeds one x element, the evaluator one weight; the
/// n+frac-bit accumulator lives in state registers, and the outputs are
/// its bits [frac, frac+n), so m cycles give dot's result.
Circuit make_mac_step_circuit(FixedFormat fmt);

}  // namespace deepsecure::synth
