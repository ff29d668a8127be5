#include <gtest/gtest.h>

#include "gc/outsourcing.h"

namespace deepsecure {
namespace {

TEST(XorShare, ReconstructsAndLooksRandom) {
  Prg prg(Block{1, 2});
  const BitVec x{1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0};
  const XorShares sh = xor_share(x, prg);
  ASSERT_EQ(sh.share_a.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(sh.share_a[i] ^ sh.share_b[i], x[i]);

  // Shares of the all-zero string are still non-degenerate pads.
  const XorShares z = xor_share(BitVec(128, 0), prg);
  size_t ones = 0;
  for (uint8_t b : z.share_a) ones += b;
  EXPECT_GT(ones, 32u);
  EXPECT_LT(ones, 96u);
}

}  // namespace
}  // namespace deepsecure
