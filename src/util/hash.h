#pragma once

/// \file hash.h
/// Hashing helpers used by the fingerprint indexes. FNV-1a for byte
/// sequences plus a 64-bit mix (Stafford variant 13) for combining.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace jigsaw {

/// 64-bit FNV-1a over a byte range.
inline std::uint64_t Fnv1a64(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

/// Stafford variant-13 finalizer; a strong 64->64 bit mixer.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-dependent combiner.
inline std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t v) {
  return Mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// Initial state of HashWords; streaming HashCombine(h, word) from it
/// over a word sequence yields HashWords of that sequence.
inline constexpr std::uint64_t kHashWordsSeed = 0x9e3779b97f4a7c15ULL;

/// Hashes a vector of 64-bit words (e.g. quantized fingerprint entries).
inline std::uint64_t HashWords(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = kHashWordsSeed;
  for (auto w : words) h = HashCombine(h, w);
  return h;
}

/// Hashes a vector of 32-bit ids (e.g. sorted sample-identifier sequences).
inline std::uint64_t HashIds(const std::vector<std::uint32_t>& ids) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (auto id : ids) h = HashCombine(h, id);
  return h;
}

}  // namespace jigsaw
