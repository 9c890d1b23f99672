// Per-partition arena allocation for the hot queue path.
//
// Every memory partition owns an Arena; its controller's read/write
// queues, per-bank command queues, and the partition's pipeline/fill/
// response deques draw their node storage from it, so one partition's
// queue nodes pack into the same few slabs instead of interleaving with
// every other allocation in the process.  Measured: bypassing it makes
// Simulator construction 15-25% slower (EXPERIMENTS.md).
//
// The arena is a segregated power-of-two free-list over 64 KiB slabs.
// Freed blocks are recycled by size class, never returned to the OS until
// the arena dies; steady-state simulation reaches a fixed working set
// after warmup and stops allocating entirely.  Blocks larger than half a
// slab fall through to operator new (deque bulk maps, rare).
//
// Thread contract: an arena is owned by exactly one Partition and only
// that partition's containers allocate from it, so no locking is needed
// or provided.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/log.hpp"

namespace latdiv {

class Arena {
 public:
  static constexpr std::size_t kSlabBytes = 64 * 1024;
  /// Smallest serviced block; also the alignment of every arena block.
  static constexpr std::size_t kMinBlock = 16;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (void* slab : slabs_) ::operator delete(slab);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    LATDIV_DCHECK(align <= kMinBlock, "over-aligned arena allocation");
    const std::size_t cls = size_class(bytes);
    if (cls >= kClasses) return ::operator new(bytes);
    if (FreeNode* node = free_[cls]) {
      free_[cls] = node->next;
      return node;
    }
    const std::size_t block = kMinBlock << cls;
    if (left_ < block) {
      cur_ = static_cast<std::byte*>(::operator new(kSlabBytes));
      slabs_.push_back(cur_);
      left_ = kSlabBytes;
    }
    void* p = cur_;
    cur_ += block;
    left_ -= block;
    return p;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = size_class(bytes);
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

  /// Slabs held (tests assert steady-state allocation stops growing).
  [[nodiscard]] std::size_t slabs() const noexcept { return slabs_.size(); }

 private:
  struct FreeNode {
    FreeNode* next;  ///< intrusive link inside a freed block
  };
  // Size classes kMinBlock << c for c in [0, kClasses): 16 B .. 32 KiB.
  static constexpr std::size_t kClasses = 12;

  [[nodiscard]] static std::size_t size_class(std::size_t bytes) noexcept {
    std::size_t cls = 0;
    std::size_t block = kMinBlock;
    while (block < bytes) {
      block <<= 1;
      ++cls;
    }
    return cls;
  }

  std::vector<void*> slabs_;
  FreeNode* free_[kClasses] = {};
  std::byte* cur_ = nullptr;
  std::size_t left_ = 0;
};

/// std::allocator-compatible handle onto an Arena.  A null arena falls
/// back to the global heap, so arena-typed containers behave identically
/// in contexts (tests, tools) that never construct an arena.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const noexcept {
    return arena_ == o.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& o) const noexcept {
    return arena_ != o.arena();
  }

 private:
  /// Non-owning; the arena outlives every container built on it (members
  /// are declared after their arena in the owning class).
  Arena* arena_ = nullptr;
};

}  // namespace latdiv
