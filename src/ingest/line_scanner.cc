#include "ingest/line_scanner.h"

#include <algorithm>

#include "common/swar.h"

namespace rwdt::ingest {

LineScanner::LineScanner(BlockReader* reader, size_t max_line_bytes,
                         Arena* carry_arena)
    : reader_(reader), max_(max_line_bytes), arena_(carry_arena) {}

bool LineScanner::FetchBlock() {
  // An unstable reader reuses its buffer: give the consumer its one
  // chance to flush views borrowed from the block being released.
  if (seen_block_ && !reader_->stable_blocks() && release_hook_) {
    release_hook_();
  }
  block_ = reader_->Next();
  seen_block_ = seen_block_ || !block_.empty();
  return !block_.empty();
}

void LineScanner::AppendKept(std::string_view s) {
  const size_t kept = std::min(carry_.size(), max_);
  const size_t room = max_ - kept;
  if (room > 0) carry_.append(s.substr(0, std::min(room, s.size())));
}

bool LineScanner::EmitCarry(Line* out, uint64_t* bytes, uint64_t record_len,
                            bool saw_newline) {
  carry_stitches_++;
  // Contract order: truncate to max (AppendKept already did), then
  // strip one trailing '\r' from the kept bytes.
  if (!carry_.empty() && carry_.back() == '\r') carry_.pop_back();
  out->text = arena_->Copy(carry_);
  out->overflow = record_len > max_;
  *bytes += record_len + (saw_newline ? 1 : 0);
  return true;
}

bool LineScanner::Next(Line* out, uint64_t* bytes) {
  uint64_t len = 0;      // total record bytes, kept or not
  bool carried = false;  // record crossed a block boundary
  carry_.clear();
  for (;;) {
    if (block_.empty()) {
      if (!FetchBlock()) {
        if (len == 0) return false;
        return EmitCarry(out, bytes, len, /*saw_newline=*/false);
      }
    }
    const size_t nl = swar::FindByte(block_.data(), block_.size(), '\n');
    if (nl == block_.size()) {
      // No terminator here: the record continues into the next block.
      AppendKept(block_);
      len += block_.size();
      carried = true;
      block_ = {};
      continue;
    }
    if (!carried) {
      // Fast path: the whole record lies in this block — zero copies.
      std::string_view kept = block_.substr(0, std::min(nl, max_));
      len += nl;
      block_.remove_prefix(nl + 1);
      if (!kept.empty() && kept.back() == '\r') kept.remove_suffix(1);
      out->text = kept;
      out->overflow = len > max_;
      *bytes += len + 1;
      return true;
    }
    AppendKept(block_.substr(0, nl));
    len += nl;
    block_.remove_prefix(nl + 1);
    return EmitCarry(out, bytes, len, /*saw_newline=*/true);
  }
}

}  // namespace rwdt::ingest
