// Chunked object pool for tree nodes: bump allocation inside geometrically
// growing chunks plus a free list of destroyed slots, so batch updates that
// churn thousands of nodes stop paying one malloc/free per node. All chunk
// memory is released when the arena is destroyed.
//
// Lifetime rules (see DESIGN.md "SIMD hashing & memory layout"):
//  * Every object allocated from an arena must be destroyed (via Delete or an
//    ArenaPtr) before the arena itself dies — the arena asserts nothing and
//    simply frees its chunks, so a live object outliving its arena is a bug
//    in the owner.
//  * Owners therefore hold the arena behind a stable pointer declared BEFORE
//    the root ArenaPtr member, making member destruction order (root first,
//    arena second) enforce the rule, and keeping the owner movable (deleters
//    point at the heap-allocated arena, whose address never changes).
//  * Arenas are single-threaded by design: one tree owns one arena, and
//    trees are externally synchronized exactly as before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace dcert::common {

template <typename T>
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Constructs a T in a pooled slot (reusing a freed slot when available).
  template <typename... Args>
  T* New(Args&&... args) {
    void* slot;
    if (free_ != nullptr) {
      slot = free_;
      free_ = free_->next;
    } else {
      if (bump_ == bump_end_) Grow();
      slot = bump_;
      bump_ += kSlotSize;
    }
    return new (slot) T(std::forward<Args>(args)...);
  }

  /// Destroys a T previously returned by New and recycles its slot.
  void Delete(T* p) {
    p->~T();
    auto* node = new (static_cast<void*>(p)) FreeNode{free_};
    free_ = node;
  }

  /// Total slots ever carved out of chunks (capacity bound, for tests).
  std::size_t SlotCount() const { return slots_; }

 private:
  // A slot must fit T and, once freed, an intrusive free-list node.
  static constexpr std::size_t kSlotSize =
      sizeof(T) > sizeof(void*) ? sizeof(T) : sizeof(void*);
  // Small first chunk: a process holds thousands of tiny trees (one MB-tree
  // per account in a HistoricalIndex), so fixed per-tree heap dominates;
  // large trees still reach kMaxChunkSlots after a few doublings.
  static constexpr std::size_t kFirstChunkSlots = 4;
  static constexpr std::size_t kMaxChunkSlots = 8192;
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "Arena relies on operator new alignment");

  struct FreeNode {
    FreeNode* next;
  };

  void Grow() {
    const std::size_t chunk_slots =
        chunks_.empty()
            ? kFirstChunkSlots
            : std::min(kMaxChunkSlots, slots_);  // double until the cap
    chunks_.push_back(std::make_unique<std::byte[]>(chunk_slots * kSlotSize));
    bump_ = chunks_.back().get();
    bump_end_ = bump_ + chunk_slots * kSlotSize;
    slots_ += chunk_slots;
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* bump_ = nullptr;
  std::byte* bump_end_ = nullptr;
  FreeNode* free_ = nullptr;
  std::size_t slots_ = 0;
};

/// Deleter returning the object to its arena; default-constructed (null
/// arena) only for empty ArenaPtr.
template <typename T>
struct ArenaDeleter {
  Arena<T>* arena = nullptr;
  void operator()(T* p) const {
    if (p != nullptr) arena->Delete(p);
  }
};

template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDeleter<T>>;

/// Convenience: allocate from `arena` into an owning ArenaPtr.
template <typename T, typename... Args>
ArenaPtr<T> MakeArenaPtr(Arena<T>& arena, Args&&... args) {
  return ArenaPtr<T>(arena.New(std::forward<Args>(args)...),
                     ArenaDeleter<T>{&arena});
}

}  // namespace dcert::common
