// Hash combining utilities used for canonical forms and memoisation tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dmm {

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/// 64-bit FNV-1a over a byte sequence, chained on from `seed` (the hash of
/// the bytes before); stable across runs (unlike std::hash for strings on
/// some platforms) so memo tables can be compared in tests.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t seed = kFnvOffset) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a(const std::string& s) noexcept {
  return fnv1a(s.data(), s.size());
}

inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& v) noexcept {
  return fnv1a(v.data(), v.size());
}

/// splitmix64 finaliser: a full-avalanche mix of one 64-bit word.
inline std::uint64_t mix64(std::uint64_t h) noexcept {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// boost-style hash_combine.
inline void hash_combine(std::size_t& seed, std::size_t value) noexcept {
  seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

}  // namespace dmm
