// Secure outsourcing for constrained clients (Section 3.3):
// the client XOR-shares its input x into (s, x ^ s); a proxy server
// takes share s and the main server share x ^ s, and the pair runs the
// served stages with them as layer 0's XOR input shares
// (secure_infer_outsourced, core/deepsecure.h; runtime/front.h). Neither
// server learns x unless they collude (Proposition 3.2).
#pragma once

#include "crypto/prg.h"
#include "support/bits.h"

namespace deepsecure {

/// XOR-share `bits` with fresh randomness from `prg`.
struct XorShares {
  BitVec share_a;  // the random pad s          -> proxy (garbler) input
  BitVec share_b;  // x ^ s                     -> main server input
};
XorShares xor_share(const BitVec& bits, Prg& prg);

}  // namespace deepsecure
