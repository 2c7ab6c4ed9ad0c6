#ifndef RWDT_COMMON_HASH_H_
#define RWDT_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace rwdt {

/// Seed for all `Hash64` hashing (shard routing, dedup, every
/// `Interner`). Fixed (not randomized per process) so shard routing, and
/// therefore the order-insensitive reduction, is reproducible run to run.
inline constexpr uint64_t kHashSeed = 0x2545f4914f6cdd1dull;

namespace hash_internal {

/// 128-bit multiply folded to 64 bits: the wyhash-style mixing step.
/// Both halves of the product feed the result, so single-bit input
/// differences avalanche through all 64 output bits.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  const unsigned __int128 p =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

inline uint64_t Load64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace hash_internal

/// 64-bit string hash behind every `Interner` probe. The engine computes
/// it once per query text and threads it through shard routing and the
/// shard memo's dedup lookup (hash-once pipeline). Word-at-a-time
/// wyhash-style multiply-mix: ~8 bytes per cycle on the texts the
/// paper's logs contain (tens to hundreds of bytes), an order of
/// magnitude faster than byte-at-a-time FNV.
///
/// Deterministic for a fixed seed and platform; NOT a portable fingerprint
/// (little/big endian differ) and NOT for persistence.
inline uint64_t Hash64(std::string_view s, uint64_t seed = kHashSeed) {
  using hash_internal::Load64;
  using hash_internal::Mix;
  constexpr uint64_t k1 = 0x9e3779b97f4a7c15ull;
  constexpr uint64_t k2 = 0xbf58476d1ce4e5b9ull;
  constexpr uint64_t k3 = 0x94d049bb133111ebull;

  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = Mix(seed ^ k1, n + 1);
  while (n >= 8) {
    h = Mix(h ^ Load64(p), k2);
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < n; ++i) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return Mix(h ^ tail, k3);
}

}  // namespace rwdt

#endif  // RWDT_COMMON_HASH_H_
