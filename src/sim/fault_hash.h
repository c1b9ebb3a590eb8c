// The counter-based hash behind both stochastic fault axes (sim/faults.h
// processor budgets, sim/job_faults.h job crashes).  A draw is a pure
// function of (seed, slot[, lane or job]) — never of visit order — so
// every engine and every replay sees the same fault stream bit for bit.
#pragma once

#include <cstdint>

namespace otsched {

/// splitmix64's output mixer (with its increment folded in).
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, a, b).
inline double HashUnit(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h = Mix64(seed ^ Mix64(a ^ Mix64(b)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace otsched
