// Backend registry + runtime dispatch for the batch AES kernels.
// Selection is lazy and cached in a single atomic pointer: the common
// path (hash_backend() inside a window sweep) is one relaxed load. A
// re-selection race is benign — every thread resolves to the same
// value for a given force-software state.
#include "crypto/hash_backend.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace deepsecure {
namespace {

// ---------------------------------------------------------------------
// CPUID probes. Cached per feature: the leaves never change at runtime.
// ---------------------------------------------------------------------

#if defined(__x86_64__) || defined(__i386__)
struct CpuFeatures {
  bool aesni = false;
  bool avx2 = false;
  bool avx512f = false;
  bool vaes = false;
  bool os_zmm = false;  // XCR0 grants zmm/opmask state
};

CpuFeatures probe_cpu() {
  CpuFeatures f;
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.aesni = (ecx & (1u << 25)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx & (1u << 5)) != 0;
    f.avx512f = (ebx & (1u << 16)) != 0;
    f.vaes = (ecx & (1u << 9)) != 0;
  }
  if (osxsave) {
    uint32_t xcr0_lo, xcr0_hi;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    // SSE+AVX+opmask+zmm_hi256+hi16_zmm all enabled by the OS.
    f.os_zmm = (xcr0_lo & 0xE6u) == 0xE6u;
  }
  return f;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe_cpu();
  return f;
}
#else
struct CpuFeatures {
  bool aesni = false, avx2 = false, avx512f = false, vaes = false,
       os_zmm = false;
};
const CpuFeatures& cpu_features() {
  static const CpuFeatures f{};
  return f;
}
#endif

// ---------------------------------------------------------------------
// Backend table.
// ---------------------------------------------------------------------

bool always_available() { return true; }

const HashBackend kScalar = {
    "scalar",          1, false, "none", &always_available,
    &detail::aes128_encrypt_batch_soft,
};

const HashBackend kBitsliced = {
    "bitsliced8",      8, true, "none", &always_available,
    &detail::aes128_encrypt_batch_bitsliced,
};

#if defined(DEEPSECURE_AESNI_COMPILED)
bool aesni_ok() {
  return cpu_features().aesni && !detail::aes128_software_forced();
}
const HashBackend kAesni = {
    "aesni8", 8, true, "aes-ni", &aesni_ok, &detail::aes128_encrypt_batch_ni,
};
#endif

#if defined(DEEPSECURE_VAES_COMPILED)
bool vaes_ok() {
  const CpuFeatures& f = cpu_features();
  return f.vaes && f.avx512f && f.os_zmm && !detail::aes128_software_forced();
}
const HashBackend kVaes = {
    "vaes16", 16,        true, "vaes+avx512f", &vaes_ok,
    &detail::aes128_encrypt_batch_vaes,
};
#endif

std::vector<const HashBackend*> build_registry() {
  std::vector<const HashBackend*> v;
#if defined(DEEPSECURE_VAES_COMPILED)
  v.push_back(&kVaes);
#endif
#if defined(DEEPSECURE_AESNI_COMPILED)
  v.push_back(&kAesni);
#endif
  v.push_back(&kBitsliced);
  v.push_back(&kScalar);
  return v;
}

// ---------------------------------------------------------------------
// Selection.
// ---------------------------------------------------------------------

// CPUID auto-dispatch: the widest compiled backend this host can run.
const HashBackend* auto_select() {
  for (const HashBackend* be : compiled_hash_backends())
    if (be->available()) return be;
  return &kScalar;  // unreachable: scalar is always available
}

// nullptr = unresolved; resolved lazily on first hash_backend() call.
std::atomic<const HashBackend*> g_active{nullptr};

}  // namespace

const std::vector<const HashBackend*>& compiled_hash_backends() {
  static const std::vector<const HashBackend*> registry = build_registry();
  return registry;
}

const HashBackend* find_hash_backend(std::string_view name) {
  for (const HashBackend* be : compiled_hash_backends())
    if (name == be->name) return be;
  return nullptr;
}

const HashBackend& hash_backend() {
  const HashBackend* be = g_active.load(std::memory_order_acquire);
  if (be == nullptr) {
    be = auto_select();
    g_active.store(be, std::memory_order_release);
  }
  return *be;
}

bool set_hash_backend(std::string_view name) {
  if (name.empty()) {
    g_active.store(nullptr, std::memory_order_release);
    return true;
  }
  const HashBackend* be = find_hash_backend(name);
  if (be == nullptr || !be->available()) return false;
  g_active.store(be, std::memory_order_release);
  return true;
}

std::string hash_backend_cpu_features() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  const auto add = [&](bool have, const char* tag) {
    if (!have) return;
    if (!s.empty()) s += ',';
    s += tag;
  };
  add(f.aesni, "aesni");
  add(f.avx2, "avx2");
  add(f.avx512f, "avx512f");
  add(f.vaes, "vaes");
  add(f.os_zmm, "os_zmm");
  return s.empty() ? "none" : s;
}

namespace detail {
void hash_backend_reselect() {
  g_active.store(nullptr, std::memory_order_release);
}
}  // namespace detail

}  // namespace deepsecure
