// Chunked bump allocator for tree nodes.
//
// Mining builds and tears down thousands of conditional RP-trees; a
// general-purpose allocator pays per-node malloc/free plus pointer-chasing
// over scattered nodes. The arena hands out objects from large contiguous
// chunks (one pointer bump per allocation) and releases everything in one
// sweep when the owning tree dies. Addresses are stable for the arena's
// lifetime, which the RP-tree relies on for parent/child/node-link
// pointers.

#ifndef RPM_CORE_ARENA_H_
#define RPM_CORE_ARENA_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace rpm {

/// Bump-allocates objects of type T in chunks of `ChunkCapacity`. Objects
/// are destroyed (in allocation order, chunk by chunk) only when the arena
/// itself is destroyed or Reset(); there is no per-object free.
/// Move-only, like the trees built on top of it.
template <typename T, size_t ChunkCapacity = 256>
class Arena {
  static_assert(ChunkCapacity > 0);

 public:
  Arena() = default;
  ~Arena() { Reset(); }

  Arena(Arena&& other) noexcept
      : chunks_(std::move(other.chunks_)), used_in_last_(other.used_in_last_) {
    other.chunks_.clear();
    other.used_in_last_ = ChunkCapacity;
  }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      Reset();
      chunks_ = std::move(other.chunks_);
      used_in_last_ = other.used_in_last_;
      other.chunks_.clear();
      other.used_in_last_ = ChunkCapacity;
    }
    return *this;
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Constructs a T in place and returns its (stable) address.
  template <typename... Args>
  T* Create(Args&&... args) {
    if (used_in_last_ == ChunkCapacity) {
      chunks_.push_back(std::make_unique<Chunk>());
      used_in_last_ = 0;
    }
    T* slot =
        reinterpret_cast<T*>(chunks_.back()->storage) + used_in_last_;
    ++used_in_last_;
    return ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
  }

  /// Takes over every object of `other`, which is left empty; they live
  /// until this arena is destroyed or Reset(), at unchanged addresses.
  /// `other`'s last chunk is first padded with default-constructed
  /// objects, so every chunk but this arena's own last one stays full.
  void Adopt(Arena&& other) {
    if (other.chunks_.empty()) return;
    while (other.used_in_last_ < ChunkCapacity) other.Create();
    chunks_.insert(chunks_.empty() ? chunks_.end() : chunks_.end() - 1,
                   std::make_move_iterator(other.chunks_.begin()),
                   std::make_move_iterator(other.chunks_.end()));
    other.chunks_.clear();
  }

  /// Destroys every allocated object and frees all chunks.
  void Reset() {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const size_t count =
          (c + 1 == chunks_.size()) ? used_in_last_ : ChunkCapacity;
      T* objects = reinterpret_cast<T*>(chunks_[c]->storage);
      for (size_t i = 0; i < count; ++i) objects[i].~T();
    }
    chunks_.clear();
    used_in_last_ = ChunkCapacity;
  }

  size_t size() const {
    if (chunks_.empty()) return 0;
    return (chunks_.size() - 1) * ChunkCapacity + used_in_last_;
  }

 private:
  struct Chunk {
    alignas(T) std::byte storage[sizeof(T) * ChunkCapacity];
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  /// Slots used in chunks_.back(); ChunkCapacity forces a fresh chunk on
  /// the next Create (also the empty-arena state).
  size_t used_in_last_ = ChunkCapacity;
};

}  // namespace rpm

#endif  // RPM_CORE_ARENA_H_
