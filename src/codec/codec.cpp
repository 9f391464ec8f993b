#include "codec/codec.hpp"

namespace evs {

void Encoder::put_u8(std::uint8_t v) { buffer_.push_back(v); }

void Encoder::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}

void Encoder::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v));
  put_u16(static_cast<std::uint16_t>(v >> 16));
}

void Encoder::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}

void Encoder::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void Encoder::put_bool(bool v) { put_u8(v ? 1 : 0); }

void Encoder::put_string(std::string_view s) {
  put_varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Encoder::put_bytes(const Bytes& b) {
  put_varint(b.size());
  buffer_.insert(buffer_.end(), b.begin(), b.end());
}

void Encoder::put_site(SiteId id) { put_u32(id.value); }

void Encoder::put_process(ProcessId id) {
  put_site(id.site);
  put_u32(id.incarnation);
}

void Encoder::put_view_id(ViewId id) {
  put_u64(id.epoch);
  put_process(id.coordinator);
}

void Encoder::put_subview_id(SubviewId id) {
  put_process(id.origin);
  put_u64(id.counter);
}

void Encoder::put_svset_id(SvSetId id) {
  put_process(id.origin);
  put_u64(id.counter);
}

void Decoder::require(std::size_t n) const {
  if (remaining() < n) throw DecodeError("buffer underflow");
}

std::uint8_t Decoder::get_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t Decoder::get_u16() {
  const auto lo = get_u8();
  const auto hi = get_u8();
  return static_cast<std::uint16_t>(lo | (std::uint16_t{hi} << 8));
}

std::uint32_t Decoder::get_u32() {
  const auto lo = get_u16();
  const auto hi = get_u16();
  return lo | (std::uint32_t{hi} << 16);
}

std::uint64_t Decoder::get_u64() {
  const auto lo = get_u32();
  const auto hi = get_u32();
  return lo | (std::uint64_t{hi} << 32);
}

std::uint64_t Decoder::get_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw DecodeError("varint too long");
    const std::uint8_t byte = get_u8();
    value |= std::uint64_t{byte & 0x7fu} << shift;
    if ((byte & 0x80u) == 0) break;
    shift += 7;
  }
  return value;
}

bool Decoder::get_bool() {
  const std::uint8_t v = get_u8();
  if (v > 1) throw DecodeError("malformed bool");
  return v == 1;
}

std::string Decoder::get_string() {
  const std::uint64_t n = get_varint();
  require(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::string_view Decoder::get_string_view() {
  const std::uint64_t n = get_varint();
  require(static_cast<std::size_t>(n));
  const std::string_view s(reinterpret_cast<const char*>(data_ + pos_),
                           static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

Bytes Decoder::get_bytes() {
  const std::uint64_t n = get_varint();
  require(static_cast<std::size_t>(n));
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += static_cast<std::size_t>(n);
  return b;
}

SiteId Decoder::get_site() { return SiteId{get_u32()}; }

ProcessId Decoder::get_process() {
  ProcessId id;
  id.site = get_site();
  id.incarnation = get_u32();
  return id;
}

ViewId Decoder::get_view_id() {
  ViewId id;
  id.epoch = get_u64();
  id.coordinator = get_process();
  return id;
}

SubviewId Decoder::get_subview_id() {
  SubviewId id;
  id.origin = get_process();
  id.counter = get_u64();
  return id;
}

SvSetId Decoder::get_svset_id() {
  SvSetId id;
  id.origin = get_process();
  id.counter = get_u64();
  return id;
}

void Decoder::expect_end() const {
  if (!at_end()) throw DecodeError("trailing bytes after message");
}

}  // namespace evs
