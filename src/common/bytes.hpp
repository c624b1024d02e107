// Flat binary serialization used by the wire message codecs (src/msg) and
// the TCP framing layer (src/net). Little-endian, length-prefixed strings.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hlock {

/// Store `v` little-endian in the sizeof(T) bytes at `p`.
template <typename T>
void store_le(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Load a little-endian T from the sizeof(T) bytes at `p`.
template <typename T>
T load_le(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return v;
  }
}

/// Append-only byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Append after the bytes already in `buf`, reusing its capacity;
  /// take() hands the grown buffer back.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  /// Pre-size the buffer when the frame size is known (message codecs
  /// compute it arithmetically via encoded_size()).
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { store_le(extend(2), v); }
  void u32(std::uint32_t v) { store_le(extend(4), v); }
  void u64(std::uint64_t v) { store_le(extend(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Append `n` bytes for the caller to fill in place: a bulk encoder
  /// (a shipped queue of thousands of entries) grows the buffer once.
  std::uint8_t* extend(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return buf_.data() + buf_.size() - n;
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Thrown when a ByteReader runs past the end of its buffer or a length
/// prefix is inconsistent — i.e. the peer sent a malformed frame.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sequential byte source over a borrowed buffer. Each fixed-width read
/// is one bounds check and one little-endian load.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) {
    if (size_ - pos_ < n) [[unlikely]]
      truncated();
  }
  [[noreturn]] static void truncated();

  template <typename T>
  T read() {
    need(sizeof(T));
    const T v = load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace hlock
