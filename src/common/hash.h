// FNV-1a 64-bit hash, used by the hash-announce write phase (modeling the
// client-verification hashes of the Byzantine-tolerant algorithms in the
// paper's references [2, 15]): o(log|V|) bits of value-dependent metadata.
//
// Also provides the 64-bit state fingerprint the exploration engine
// deduplicates on: FNV-1a with a splitmix64 finalizer, so low-entropy
// single-byte differences in canonical encodings diffuse across all 64
// output bits before the fingerprint is truncated into hash-table shards.
#pragma once

#include <cstdint>
#include <span>

namespace memu {

inline constexpr std::uint64_t kFnv64Offset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv64Prime = 0x100000001b3ull;

// Folds `data` into a running FNV-1a state; fnv1a64 starts at the offset
// basis. Split out so a streaming sink (BufWriter's hashing mode) folds
// exactly the bytes a stored encoding would hold.
inline std::uint64_t fnv1a64_update(std::uint64_t h,
                                    std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= kFnv64Prime;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  return fnv1a64_update(kFnv64Offset, data);
}

// splitmix64 finalizer: a bijective mixer with full avalanche.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Finishes a fingerprint from the FNV-1a state and length of the bytes.
inline std::uint64_t fingerprint_finish(std::uint64_t fnv,
                                        std::uint64_t size) {
  return mix64(fnv ^ (0x9e3779b97f4a7c15ull + size));
}

// State fingerprint for visited-set deduplication (see engine/visited.h).
inline std::uint64_t fingerprint64(std::span<const std::uint8_t> data) {
  return fingerprint_finish(fnv1a64(data), data.size());
}

}  // namespace memu
