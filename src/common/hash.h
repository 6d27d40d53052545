// Building blocks of the structural 64-bit hashes that key the label
// interner: FNV-1a steps over fixed-width fields and bytes, closed by a
// murmur3 finalizer. The FNV multiply carries input bits upward only; the
// finalizer folds them back down, so the low bits a power-of-two table
// indexes with depend on every input bit.
#ifndef USTL_COMMON_HASH_H_
#define USTL_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace ustl {

inline constexpr uint64_t kHashSeed = 14695981039346656037ull;
inline constexpr uint64_t kHashPrime = 1099511628211ull;

/// Folds one fixed-width field into `hash`.
inline uint64_t HashMix(uint64_t hash, uint64_t value) {
  return (hash ^ value) * kHashPrime;
}

/// Folds a length-prefixed byte string into `hash`.
inline uint64_t HashBytes(uint64_t hash, std::string_view bytes) {
  hash = HashMix(hash, bytes.size());
  for (char c : bytes) hash = HashMix(hash, static_cast<unsigned char>(c));
  return hash;
}

/// Avalanches a finished hash (murmur3 fmix64).
inline uint64_t HashFinish(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  return hash ^ (hash >> 33);
}

}  // namespace ustl

#endif  // USTL_COMMON_HASH_H_
