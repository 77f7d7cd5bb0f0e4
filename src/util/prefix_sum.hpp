// Exclusive prefix sums — the workhorse of CSR construction and of the
// renumbering / replication transforms.
#pragma once

#include <cstddef>
#include <span>

namespace graffix {

/// In-place exclusive scan; returns the total sum.
template <typename T>
T exclusive_scan_inplace(std::span<T> values) {
  T running{};
  for (auto& v : values) {
    T next = running + v;
    v = running;
    running = next;
  }
  return running;
}

/// Out-of-place exclusive scan: out[i] = sum of in[0..i). out may have one
/// extra trailing slot which then receives the total.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out) {
  T running{};
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = running;
    running += in[i];
  }
  if (out.size() > n) out[n] = running;
  return running;
}

}  // namespace graffix
