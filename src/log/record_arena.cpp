#include "log/record_arena.hpp"

#include <algorithm>
#include <cstring>

namespace evs::log {

void RecordArena::push_back(std::string_view data, bool filled) {
  if (!data.empty()) {
    if (chunks_.empty() ||
        chunks_.back().capacity - chunks_.back().used < data.size()) {
      Chunk chunk;
      chunk.start = tail_;
      chunk.capacity = std::max(kChunkBytes, data.size());
      chunk.bytes = std::make_unique_for_overwrite<char[]>(chunk.capacity);
      held_bytes_ += chunk.capacity;
      chunks_.push_back(std::move(chunk));
    }
    Chunk& chunk = chunks_.back();
    std::memcpy(chunk.bytes.get() + chunk.used, data.data(), data.size());
    chunk.used += data.size();
    tail_ += data.size();
  }
  ends_.push_back(tail_ << 1 | (filled ? 1 : 0));
}

void RecordArena::pop_front(std::size_t n) {
  if (n == 0) return;
  begin_ = ends_[n - 1] >> 1;
  ends_.erase(ends_.begin(), ends_.begin() + static_cast<std::ptrdiff_t>(n));
  while (!chunks_.empty() &&
         chunks_.front().start + chunks_.front().used <= begin_) {
    held_bytes_ -= chunks_.front().capacity;
    chunks_.pop_front();
  }
}

std::string_view RecordArena::data(std::size_t i) const {
  const std::uint64_t start = i == 0 ? begin_ : ends_[i - 1] >> 1;
  const std::uint64_t end = ends_[i] >> 1;
  if (start == end) return {};
  // The last chunk starting at or before the record holds all of it.
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), start,
      [](std::uint64_t offset, const Chunk& c) { return offset < c.start; });
  return bytes(static_cast<std::size_t>(it - chunks_.begin()) - 1, start, end);
}

}  // namespace evs::log
