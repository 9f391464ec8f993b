// The log shard's records, each stored once.
//
// Records live back to back in a chunked byte arena; the only per-record
// bookkeeping is one end offset, with the fill flag folded into its low
// bit. Offsets count bytes appended since the arena was created, so the
// record at index i spans [end(i-1), end(i)) and trimming the front never
// rewrites an offset. A record never straddles two chunks: one that does
// not fit the last chunk's free space starts a new chunk (sized to the
// record if it is bigger than kChunkBytes), and trimming frees a chunk
// once every record in it is gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>

namespace evs::log {

class RecordArena {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Records held (index 0 is the oldest not yet trimmed).
  std::size_t size() const { return ends_.size(); }
  /// Appends one record; `filled` marks junk minted by fill().
  void push_back(std::string_view data, bool filled);
  /// Drops the oldest `n` records, freeing every chunk they emptied.
  void pop_front(std::size_t n);

  bool filled(std::size_t i) const { return (ends_[i] & 1) != 0; }
  /// Record i's bytes, valid until the arena is next modified.
  std::string_view data(std::size_t i) const;

  /// Bytes the chunks hold, including the unused tail of each.
  std::size_t held_bytes() const { return held_bytes_; }

  /// Calls fn(filled, data) for every record, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t chunk = 0;
    std::uint64_t start = begin_;
    for (const std::uint64_t tagged : ends_) {
      const std::uint64_t end = tagged >> 1;
      while (start != end && start >= chunks_[chunk].start + chunks_[chunk].used)
        ++chunk;
      fn((tagged & 1) != 0, bytes(chunk, start, end));
      start = end;
    }
  }

 private:
  struct Chunk {
    std::uint64_t start = 0;  // offset of its first byte
    std::size_t used = 0;
    std::size_t capacity = 0;
    std::unique_ptr<char[]> bytes;
  };

  std::string_view bytes(std::size_t chunk, std::uint64_t start,
                         std::uint64_t end) const {
    if (start == end) return {};
    const Chunk& c = chunks_[chunk];
    return {c.bytes.get() + (start - c.start),
            static_cast<std::size_t>(end - start)};
  }

  std::deque<Chunk> chunks_;
  /// Per record: end offset << 1 | filled.
  std::deque<std::uint64_t> ends_;
  std::uint64_t begin_ = 0;  // start offset of record 0
  std::uint64_t tail_ = 0;   // end offset of the newest record
  std::size_t held_bytes_ = 0;
};

}  // namespace evs::log
