// 64-bit FNV-1a: the one byte-wise hash behind every instance fingerprint
// (manifests, sweep checkpoints, the daemon's /metrics) and the fuzz
// harness's case identities.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace otsched {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over the eight bytes of `value`, least significant first.
inline std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((value >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return h;
}

/// FNV-1a over the bytes of `text`.
inline std::uint64_t Fnv1a(std::uint64_t h, std::string_view text) {
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h;
}

/// `hash` as 16 lowercase hex digits (the metrics schema's
/// instance_hash pattern).
inline std::string Hex16(std::uint64_t hash) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace otsched
