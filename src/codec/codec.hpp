// Bounds-checked binary encoder/decoder for wire messages.
//
// Every protocol message in the stack (membership rounds, flush summaries,
// e-view structures, application payloads) is serialised through these two
// classes. Decoding is defensive: any out-of-bounds or malformed read
// throws DecodeError instead of reading garbage, so a corrupted or
// truncated payload can never silently corrupt protocol state.
//
// Encoding is little-endian fixed width for scalars plus LEB128 varints
// for lengths and counters.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace evs {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  Encoder() = default;

  /// Size hint: pre-allocates the buffer so a known-size message encodes
  /// with a single allocation. Over-estimating slightly is fine; framing
  /// adds one tag byte, so hint `expected + 1` when the encoder will be
  /// passed to gms::frame.
  void reserve(std::size_t expected_bytes) { buffer_.reserve(expected_bytes); }

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// Unsigned LEB128; compact for small lengths/counters.
  void put_varint(std::uint64_t v);
  void put_bool(bool v);
  void put_string(std::string_view s);
  void put_bytes(const Bytes& b);

  void put_site(SiteId id);
  void put_process(ProcessId id);
  void put_view_id(ViewId id);
  void put_subview_id(SubviewId id);
  void put_svset_id(SvSetId id);

  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& items, Fn&& put_item) {
    put_varint(items.size());
    for (const T& item : items) put_item(*this, item);
  }

  const Bytes& buffer() const& { return buffer_; }
  Bytes take() && { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

class Decoder {
 public:
  /// The decoder borrows the buffer; it must outlive the decoder.
  explicit Decoder(const Bytes& buffer) : data_(buffer.data()), size_(buffer.size()) {}
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::uint64_t get_varint();
  bool get_bool();
  std::string get_string();
  /// get_string without the copy: a view into the borrowed buffer.
  std::string_view get_string_view();
  Bytes get_bytes();

  SiteId get_site();
  ProcessId get_process();
  ViewId get_view_id();
  SubviewId get_subview_id();
  SvSetId get_svset_id();

  template <typename T, typename Fn>
  std::vector<T> get_vector(Fn&& get_item) {
    const std::uint64_t n = get_varint();
    // A length prefix can never legitimately exceed the remaining bytes
    // (every element encodes to at least one byte); reject early so a
    // hostile length cannot trigger a huge allocation.
    if (n > remaining()) throw DecodeError("vector length exceeds buffer");
    std::vector<T> items;
    items.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) items.push_back(get_item(*this));
    return items;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }
  /// Throws unless the whole buffer was consumed — catches trailing junk.
  void expect_end() const;

 private:
  void require(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace evs
