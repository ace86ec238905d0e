#include "net/bytes.h"

namespace sugar::net {

std::uint64_t ByteReader::u64be() {
  std::uint64_t hi = u32be();
  std::uint64_t lo = u32be();
  return ok_ ? (hi << 32 | lo) : 0;
}

std::uint16_t ByteReader::u16le() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32le() {
  if (!need(4)) return 0;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
  pos_ += 4;
  return v;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  if (!need(n)) return {};
  auto v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

void ByteWriter::u16be(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32be(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64be(std::uint64_t v) {
  u32be(static_cast<std::uint32_t>(v >> 32));
  u32be(static_cast<std::uint32_t>(v));
}

void ByteWriter::u16le(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32le(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void ByteWriter::patch_u16be(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) return;
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u32be(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) return;
  buf_[offset] = static_cast<std::uint8_t>(v >> 24);
  buf_[offset + 1] = static_cast<std::uint8_t>(v >> 16);
  buf_[offset + 2] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 3] = static_cast<std::uint8_t>(v);
}

std::string hex_words(std::span<const std::uint8_t> data) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(data.size() * 5 / 2 + 2);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i > 0 && i % 2 == 0) out.push_back(' ');
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xF]);
  }
  return out;
}

}  // namespace sugar::net
