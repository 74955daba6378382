// Non-cryptographic hashing for hash maps, content fingerprints, and
// deterministic name->seed derivation.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace bp::util {

// FNV-1a 64-bit. Stable across platforms and runs. Service routing uses
// it, and so did version 2 WAL logs, which are still read.
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0) {
  uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// XXH64 (xxHash, 64-bit): four independent 64-bit lanes over 32-byte
// stripes, then an avalanche. Words are loaded as little-endian whatever
// the host, so a stored value means the same thing on every machine. The
// storage frame and WAL checksums use it; see storage/compress.hpp and
// wal/wal_format.hpp.
namespace xxh64_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
inline T LoadLe(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace xxh64_internal

inline uint64_t Xxh64(std::string_view data, uint64_t seed = 0) {
  using namespace xxh64_internal;
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t h;
  if (data.size() >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (const char* const limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, LoadLe<uint64_t>(p));
      v2 = Round(v2, LoadLe<uint64_t>(p + 8));
      v3 = Round(v3, LoadLe<uint64_t>(p + 16));
      v4 = Round(v4, LoadLe<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, LoadLe<uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (LoadLe<uint32_t>(p) * kPrime1), 23) * kPrime2 +
        kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (static_cast<uint8_t>(*p) * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

// SplitMix64 finalizer: good avalanche for integer keys.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace bp::util
