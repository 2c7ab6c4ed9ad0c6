#include "common/arena.h"

#include <algorithm>

namespace rwdt {

Arena::Arena(size_t block_bytes)
    : block_bytes_(std::max<size_t>(1, block_bytes)) {}

char* Arena::Alloc(size_t n) {
  if (n == 0) n = 1;  // distinct non-null pointers for empty blobs
  // Advance through retained blocks until one fits; most Clear/reuse
  // cycles stay inside blocks_[0] and never enter this loop.
  while (cur_ < blocks_.size()) {
    Block& b = blocks_[cur_];
    if (b.size - used_ >= n) {
      char* out = b.data.get() + used_;
      used_ += n;
      return out;
    }
    ++cur_;
    used_ = 0;
  }
  // Not zero-filled: every byte is written by the caller before it is
  // read, and zeroing a whole block would dominate one-shot interners.
  const size_t size = std::max(block_bytes_, n);
  blocks_.push_back(Block{std::make_unique_for_overwrite<char[]>(size), size});
  cur_ = blocks_.size() - 1;
  used_ = n;
  return blocks_[cur_].data.get();
}

size_t Arena::bytes_reserved() const {
  size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

}  // namespace rwdt
