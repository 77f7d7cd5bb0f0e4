// Pooled scratch allocation and process-memory telemetry.
//
// Paper-scale rebuilds and sweeps are allocation-churn-bound as much as
// compute-bound: every CSR rebuild, transpose, and engine sweep used to
// allocate multi-hundred-megabyte scratch, free it, and allocate it
// again on the next call, so the allocator's high-water mark — not the
// live data — set the process footprint, and page faults on the refill
// dominated small runs. ScratchArena keeps those buffers alive between
// uses: released blocks park on per-size-class free lists and the next
// acquire of the same class reuses them, so a steady-state pipeline
// touches the kernel allocator once per distinct high-water size.
//
// Three access styles, all backed by the one process-global pool:
//   - ScratchArena::global().acquire()/release() — raw blocks.
//   - ArenaBuffer<T> — RAII typed scratch span (trivial T only); the
//     default acquire is UNINITIALIZED, the (n, fill) form value-fills.
//   - ArenaVector<T> — std::vector with an arena-backed allocator, for
//     call sites that need vector semantics (growth, assign) but should
//     recycle their backing store across calls.
//
// Telemetry: the pool tracks outstanding bytes and their high-water mark
// (arena_peak_bytes()), and this header also exposes the process RSS
// counters the bench harness stamps into every JSON table
// (peak_rss_bytes/current_rss_bytes), so "how much memory did this
// take" is a recorded receipt rather than a claim. DESIGN.md §9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace graffix {

class ScratchArena {
 public:
  /// The process-global pool every helper below draws from.
  /// Intentionally leaked (never destroyed): scratch owners with static
  /// storage duration may release after main() returns.
  static ScratchArena& global();

  /// Returns a 64-byte-aligned block of at least `bytes` (rounded up to
  /// the size class), reusing a pooled block when one is available.
  /// Contents are unspecified. bytes == 0 returns nullptr.
  [[nodiscard]] void* acquire(std::size_t bytes);

  /// Returns a block to the pool. `p` must come from acquire() with the
  /// same `bytes` request (the class is re-derived from it).
  void release(void* p, std::size_t bytes) noexcept;

  /// Bytes currently acquired and not yet released.
  [[nodiscard]] std::size_t outstanding_bytes() const;
  /// High-water mark of outstanding_bytes() since construction or the
  /// last reset_peak().
  [[nodiscard]] std::size_t peak_bytes() const;
  /// Bytes parked on the free lists, ready for reuse.
  [[nodiscard]] std::size_t pooled_bytes() const;
  /// Acquires served from the pool vs. from the system allocator.
  [[nodiscard]] std::uint64_t reuse_count() const;
  [[nodiscard]] std::uint64_t alloc_count() const;

  /// Restarts the high-water accounting from the current outstanding
  /// level (per-phase accounting in the benches).
  void reset_peak();

  /// Frees every pooled (idle) block back to the system. Outstanding
  /// blocks are unaffected.
  void trim();

  ScratchArena();
  ~ScratchArena();
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

 private:
  struct Impl;
  Impl* impl_;
};

/// RAII typed scratch buffer drawn from the global pool. Restricted to
/// trivially-copyable, trivially-destructible T: the pool hands back raw
/// recycled storage, so nothing is constructed or destroyed — the
/// default form is UNINITIALIZED and must be fully written before read.
template <typename T>
class ArenaBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaBuffer is raw recycled storage; non-trivial types "
                "would skip construction/destruction");

 public:
  ArenaBuffer() = default;

  /// Uninitialized buffer of n elements.
  explicit ArenaBuffer(std::size_t n)
      : data_(static_cast<T*>(ScratchArena::global().acquire(n * sizeof(T)))),
        size_(n) {}

  /// Value-filled buffer of n elements.
  ArenaBuffer(std::size_t n, const T& fill) : ArenaBuffer(n) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = fill;
  }

  ~ArenaBuffer() { reset(); }

  ArenaBuffer(ArenaBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  void reset() {
    if (data_ != nullptr) {
      ScratchArena::global().release(data_, size_ * sizeof(T));
      data_ = nullptr;
      size_ = 0;
    }
  }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] std::span<T> span() { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const { return {data_, size_}; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// std allocator adapter over the global pool: vector growth doubles, the
/// pool's power-of-two size classes cache exactly those blocks, so a
/// vector that is destroyed and rebuilt every call (rebuild scratch,
/// engine sweep tables) stops round-tripping through the system
/// allocator.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(ScratchArena::global().acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ScratchArena::global().release(p, n * sizeof(T));
  }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) {
    return true;
  }
  friend bool operator!=(const ArenaAllocator&, const ArenaAllocator&) {
    return false;
  }
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// Convenience accessors for the global pool's telemetry.
[[nodiscard]] std::size_t arena_peak_bytes();
[[nodiscard]] std::size_t arena_outstanding_bytes();
[[nodiscard]] std::size_t arena_pooled_bytes();
void arena_reset_peak();

/// Lifetime peak resident-set size of this process in bytes (getrusage
/// ru_maxrss). 0 where the platform offers no counter. Monotone: this
/// never decreases, so per-phase deltas need current_rss_bytes().
[[nodiscard]] std::size_t peak_rss_bytes();

/// Current resident-set size in bytes (/proc/self/statm). 0 where
/// unavailable.
[[nodiscard]] std::size_t current_rss_bytes();

}  // namespace graffix
