#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "crypto/aes128.h"
#include "crypto/block.h"
#include "crypto/prg.h"
#include "crypto/sha256.h"

namespace deepsecure {
namespace {

Block block_from_hex_bytes(const uint8_t bytes[16]) {
  return Block::from_bytes(bytes);
}

TEST(Block, XorAndLsb) {
  const Block a{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const Block b{0x1111111111111111ull, 0x2222222222222222ull};
  const Block c = a ^ b;
  EXPECT_EQ(c.lo, 0x0123456789ABCDEFull ^ 0x1111111111111111ull);
  EXPECT_EQ((c ^ b), a);
  EXPECT_TRUE(a.lsb());
  EXPECT_FALSE(Block(2, 0).lsb());
}

TEST(Block, GfDoubleReduces) {
  // 2 * (x^127) = x^128 = x^7 + x^2 + x + 1 = 0x87.
  Block top{0, 0x8000000000000000ull};
  const Block r = top.gf_double();
  EXPECT_EQ(r.lo, 0x87ull);
  EXPECT_EQ(r.hi, 0ull);
  // Doubling without carry is a plain shift.
  EXPECT_EQ(Block(1, 0).gf_double(), Block(2, 0));
}

// FIPS-197 Appendix B/C known-answer test.
TEST(Aes128, Fips197KnownAnswer) {
  const uint8_t key_bytes[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                                 0x0e, 0x0f};
  const uint8_t pt_bytes[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
                                0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                                0xee, 0xff};
  const uint8_t expect_bytes[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04,
                                    0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                                    0xc5, 0x5a};
  const Aes128Key key = aes128_expand(block_from_hex_bytes(key_bytes));
  const Block ct = detail::aes128_encrypt_soft(key, block_from_hex_bytes(pt_bytes));
  EXPECT_EQ(ct, block_from_hex_bytes(expect_bytes));
}

// FIPS-197 Appendix A vector (different key schedule path).
TEST(Aes128, Fips197AppendixA) {
  const uint8_t key_bytes[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                                 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                                 0x4f, 0x3c};
  const uint8_t pt_bytes[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                                0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                                0x07, 0x34};
  const uint8_t expect_bytes[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09,
                                    0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                                    0x0b, 0x32};
  const Aes128Key key = aes128_expand(block_from_hex_bytes(key_bytes));
  const Block ct = detail::aes128_encrypt_soft(key, block_from_hex_bytes(pt_bytes));
  EXPECT_EQ(ct, block_from_hex_bytes(expect_bytes));
}

TEST(Aes128, NiMatchesSoftware) {
  if (!aes128_ni_available()) GTEST_SKIP() << "AES-NI not available";
  Prg prg(Block{123, 456});
  for (int i = 0; i < 64; ++i) {
    const Block key = prg.next_block();
    const Block pt = prg.next_block();
    const Aes128Key k = aes128_expand(key);
    EXPECT_EQ(aes128_encrypt(k, pt), detail::aes128_encrypt_soft(k, pt));
  }
}

TEST(Aes128, BatchMatchesSingle) {
  Prg prg(Block{9, 9});
  const Aes128Key k = aes128_expand(prg.next_block());
  std::vector<Block> batch(37);
  prg.next_blocks(batch.data(), batch.size());
  std::vector<Block> expect = batch;
  for (auto& b : expect) b = aes128_encrypt(k, b);
  aes128_encrypt_batch(k, batch.data(), batch.size());
  EXPECT_EQ(batch, expect);
}

class ForceSoftwareGuard {
 public:
  ForceSoftwareGuard() { aes128_force_software(true); }
  ~ForceSoftwareGuard() { aes128_force_software(false); }
};

TEST(GcHash, BatchMatchesScalar) {
  for (const bool soft : {false, true}) {
    SCOPED_TRACE(soft ? "software" : "runtime-default");
    std::optional<ForceSoftwareGuard> guard;
    if (soft) guard.emplace();
    Prg prg(Block{21, 12});
    std::vector<Block> in(133);
    prg.next_blocks(in.data(), in.size());
    std::vector<uint64_t> tweaks(in.size());
    for (size_t i = 0; i < tweaks.size(); ++i) tweaks[i] = 1000 + 3 * i;
    std::vector<Block> out(in.size());
    gc_hash_batch(in.data(), tweaks.data(), out.data(), in.size());
    for (size_t i = 0; i < in.size(); ++i)
      ASSERT_EQ(out[i], gc_hash(in[i], tweaks[i])) << "i=" << i;
  }
}

TEST(GcHash, BatchSupportsInPlaceAliasing) {
  Prg prg(Block{8, 15});
  std::vector<Block> buf(50);
  prg.next_blocks(buf.data(), buf.size());
  const std::vector<Block> in = buf;
  std::vector<uint64_t> tweaks(buf.size());
  for (size_t i = 0; i < tweaks.size(); ++i) tweaks[i] = i;
  gc_hash_batch(buf.data(), tweaks.data(), buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i)
    ASSERT_EQ(buf[i], gc_hash(in[i], tweaks[i])) << "i=" << i;
}

TEST(GcHash, DeltaPairsMatchScalarHashes) {
  for (const bool soft : {false, true}) {
    SCOPED_TRACE(soft ? "software" : "runtime-default");
    std::optional<ForceSoftwareGuard> guard;
    if (soft) guard.emplace();
    Prg prg(Block{77, 99});
    const size_t n = 83;  // exercises chunk boundary + tail
    Block delta = prg.next_block();
    delta.lo |= 1;
    std::vector<Block> x0(n);
    prg.next_blocks(x0.data(), n);
    std::vector<uint64_t> tweaks(n);
    for (size_t i = 0; i < n; ++i) tweaks[i] = 5000 + i;
    std::vector<Block> out(2 * n);
    gc_hash_pairs(x0.data(), delta, tweaks.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[2 * i + 0], gc_hash(x0[i], tweaks[i])) << i;
      ASSERT_EQ(out[2 * i + 1], gc_hash(x0[i] ^ delta, tweaks[i])) << i;
    }
  }
}

TEST(GcHash, TweakSeparation) {
  const Block x{42, 17};
  EXPECT_NE(gc_hash(x, 0), gc_hash(x, 1));
  EXPECT_EQ(gc_hash(x, 5), gc_hash(x, 5));
  EXPECT_NE(gc_hash(x, 0), gc_hash(x ^ Block{1, 0}, 0));
}

// NIST FIPS 180-2 test vectors.
TEST(Sha256, KnownAnswers) {
  auto hex = [](const Sha256Digest& d) {
    std::string s;
    static const char* k = "0123456789abcdef";
    for (uint8_t b : d) {
      s.push_back(k[b >> 4]);
      s.push_back(k[b & 0xF]);
    }
    return s;
  };
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Long-message vector: one million 'a's.
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Prg, DeterministicAndSeedSeparated) {
  Prg a(Block{1, 2}), b(Block{1, 2}), c(Block{3, 4});
  const Block x = a.next_block();
  EXPECT_EQ(x, b.next_block());
  EXPECT_NE(x, c.next_block());
}

TEST(Prg, FillBytesBalanced) {
  Prg prg(Block{77, 0});
  std::vector<uint8_t> bytes(1250);  // 10,000 bits, as an OT column
  prg.fill_bytes(bytes.data(), bytes.size());
  size_t ones = 0;
  for (uint8_t b : bytes) ones += static_cast<size_t>(__builtin_popcount(b));
  EXPECT_NEAR(static_cast<double>(ones), 5000.0, 300.0);
}

// fill_bytes batches through next_blocks now; the keystream must remain
// exactly the per-block counter stream (protocol transcripts depend on it).
TEST(Prg, FillBytesMatchesBlockStream) {
  for (const size_t n : {size_t{5}, size_t{16}, size_t{2048 + 7}}) {
    Prg a(Block{4, 2}), b(Block{4, 2});
    std::vector<uint8_t> got(n);
    a.fill_bytes(got.data(), n);
    std::vector<uint8_t> expect(n);
    size_t off = 0;
    while (off < n) {
      uint8_t tmp[16];
      b.next_block().to_bytes(tmp);
      const size_t m = std::min<size_t>(16, n - off);
      std::copy(tmp, tmp + m, expect.begin() + static_cast<ptrdiff_t>(off));
      off += m;
    }
    EXPECT_EQ(got, expect) << "n=" << n;
    // A partial tail consumes one whole counter block.
    EXPECT_EQ(a.next_block(), b.next_block());
  }
}

TEST(Prg, OsEntropyDistinct) {
  Prg a = Prg::from_os_entropy();
  Prg b = Prg::from_os_entropy();
  EXPECT_NE(a.next_block(), b.next_block());
}

}  // namespace
}  // namespace deepsecure
