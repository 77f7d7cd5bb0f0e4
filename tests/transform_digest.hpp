// FNV-1a style digests of transform outputs, shared by the transform
// golden tests. A digest folds every output bit that downstream stages
// read, so a pinned value proves a rewrite is behavior-preserving.
#pragma once

#include <cstdint>
#include <cstring>

#include "graph/csr.hpp"

namespace graffix::transform::testing {

inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

inline std::uint64_t double_bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Slot count, offsets, targets, weight bits and the hole mask.
inline std::uint64_t digest_csr(const Csr& g) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv(h, g.num_slots());
  h = fnv(h, g.num_edges());
  for (auto o : g.offsets()) h = fnv(h, o);
  for (auto t : g.targets()) h = fnv(h, t);
  if (g.has_weights()) {
    for (auto w : g.weights()) {
      std::uint32_t bits;
      std::memcpy(&bits, &w, sizeof(bits));
      h = fnv(h, bits);
    }
  }
  if (g.has_holes()) {
    for (auto x : g.holes()) h = fnv(h, x);
  }
  return h;
}

}  // namespace graffix::transform::testing
