#include "gc/outsourcing.h"

namespace deepsecure {

XorShares xor_share(const BitVec& bits, Prg& prg) {
  XorShares sh;
  sh.share_a.resize(bits.size());
  sh.share_b.resize(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    sh.share_a[i] = static_cast<uint8_t>(prg.next_u64() & 1u);
    sh.share_b[i] = sh.share_a[i] ^ (bits[i] & 1u);
  }
  return sh;
}

}  // namespace deepsecure
