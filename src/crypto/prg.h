// Cryptographic pseudo-random generator: AES-128 in counter mode.
// Used for wire-label sampling and OT-extension column expansion
// (fill_bytes: one packed bit per OT).
#pragma once

#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/block.h"

namespace deepsecure {

class Prg {
 public:
  /// Seeded PRG; distinct seeds give computationally independent streams.
  explicit Prg(Block seed);

  /// Fresh random seed from the OS entropy source.
  static Prg from_os_entropy();

  Block next_block();
  void next_blocks(Block* out, size_t n);
  void fill_bytes(void* dst, size_t n);
  uint64_t next_u64() { return next_block().lo; }

 private:
  Aes128Key key_;
  uint64_t counter_ = 0;
};

/// Process-global PRG for label generation (thread-local instances).
Prg& thread_prg();

}  // namespace deepsecure
