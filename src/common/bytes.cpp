#include "common/bytes.hpp"

namespace hlock {

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteReader::truncated() { throw DecodeError("truncated buffer"); }

std::string ByteReader::str() {
  const auto n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace hlock
