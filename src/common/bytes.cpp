#include "common/bytes.hpp"

namespace hlock {

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteReader::need(std::size_t n) {
  if (size_ - pos_ < n) throw DecodeError("truncated buffer");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  const auto lo = u8();
  const auto hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  const auto lo = u16();
  const auto hi = u16();
  return static_cast<std::uint32_t>(lo) |
         (static_cast<std::uint32_t>(hi) << 16);
}

std::uint64_t ByteReader::u64() {
  const auto lo = u32();
  const auto hi = u32();
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}

std::string ByteReader::str() {
  const auto n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace hlock
