#ifndef RWDT_COMMON_ARENA_H_
#define RWDT_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace rwdt {

/// Bump allocator for byte blobs with O(1) wholesale reuse.
///
/// Built for the engine's allocation-free steady state: a worker interns
/// every symbol of a query into an arena-backed `Interner`, then
/// `Clear()` recycles the memory for the next query without returning it
/// to the heap. Blocks are retained across Clear(), so after warm-up the
/// parse hot path performs no allocations at all.
///
/// Not thread-safe; each worker owns its own arena.
class Arena {
 public:
  /// `block_bytes` is the granularity of heap requests; blobs larger
  /// than a block get a dedicated block of their exact size.
  explicit Arena(size_t block_bytes = 1 << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `n` uninitialized bytes (unaligned; intended for character
  /// data). Pointers stay valid until Clear(), also across a move.
  char* Alloc(size_t n);

  /// Copies `s` into the arena and returns a view of the copy.
  std::string_view Copy(std::string_view s) {
    if (s.empty()) return {};
    char* dst = Alloc(s.size());
    std::char_traits<char>::copy(dst, s.data(), s.size());
    return {dst, s.size()};
  }

  /// Forgets every blob but keeps all blocks for reuse. Invalidates all
  /// pointers previously returned by Alloc/Copy.
  void Clear() {
    cur_ = 0;
    used_ = 0;
  }

  /// Heap bytes held (reserved, not necessarily in use).
  size_t bytes_reserved() const;

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size;
  };

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t cur_ = 0;   // index of the block being bumped
  size_t used_ = 0;  // bytes used in blocks_[cur_]
};

}  // namespace rwdt

#endif  // RWDT_COMMON_ARENA_H_
