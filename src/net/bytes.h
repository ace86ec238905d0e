// Bounds-checked byte-buffer cursors used by every parser and serializer in
// the library. Network byte order (big-endian) is the default for all
// multi-byte reads and writes; little-endian accessors exist for the pcap
// file format only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sugar::net {

/// Read cursor over an immutable byte span. All accessors check bounds and
/// report failure through ok(); after the first failed read the cursor is
/// poisoned and every subsequent read returns 0.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const {
    return pos_ <= data_.size() ? data_.size() - pos_ : 0;
  }

  // The accessors the packet parser calls per header field are defined
  // inline here; the rest live in bytes.cpp.

  /// Absolute reposition. Seeking past the end poisons the reader.
  void seek(std::size_t offset) {
    if (offset > data_.size()) {
      fail();
      return;
    }
    pos_ = offset;
  }
  /// Relative forward skip.
  void skip(std::size_t n) {
    if (need(n)) pos_ += n;
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16be() {
    if (!need(2)) return 0;
    const auto v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32be() {
    if (!need(4)) return 0;
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                            static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                            static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64be();
  std::uint16_t u16le();
  std::uint32_t u32le();

  /// Copies n bytes into out; poisons and leaves out untouched on underflow.
  bool bytes(std::uint8_t* out, std::size_t n) {
    if (!need(n)) return false;
    std::copy_n(data_.data() + pos_, n, out);
    pos_ += n;
    return true;
  }
  /// Returns a view of n bytes without copying, or an empty span on underflow.
  std::span<const std::uint8_t> view(std::size_t n);

 private:
  bool fail() {
    ok_ = false;
    return false;
  }
  bool need(std::size_t n) {
    if (!ok_) return false;  // stay poisoned after the first failure
    return remaining() >= n ? true : fail();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Append-only growable byte sink. Writers never fail; the buffer grows.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16be(std::uint16_t v);
  void u32be(std::uint32_t v);
  void u64be(std::uint64_t v);
  void u16le(std::uint16_t v);
  void u32le(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// In-place patch of an already-written big-endian u16 (checksum fixups).
  void patch_u16be(std::size_t offset, std::uint16_t v);
  void patch_u32be(std::size_t offset, std::uint32_t v);

 private:
  std::vector<std::uint8_t> buf_;
};

/// Hex dump "4500 4000 ..." as used by the paper's Pcap-Encoder tokenizer
/// (2-byte words, space separated). Odd trailing byte is emitted as 2 digits.
std::string hex_words(std::span<const std::uint8_t> data);

}  // namespace sugar::net
