// Big-endian byte stream helpers for protocol codecs.
//
// Used by the BGP RFC 4271 codec and the OpenFlow-like control channel.
// Decoding never throws on truncated input; the reader enters a failed
// state that callers check once at the end (torn-tape style).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/ip.hpp"

namespace bgpsdn::bgp {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(const std::vector<std::byte>& b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void addr(net::Ipv4Addr a) { u32(a.bits()); }

  /// Overwrite a previously written big-endian u16 at `pos` (for
  /// back-patching length fields).
  void patch_u16(std::size_t pos, std::uint16_t v) {
    buf_[pos] = static_cast<std::byte>(v >> 8);
    buf_[pos + 1] = static_cast<std::byte>(v & 0xff);
  }

  std::size_t size() const { return buf_.size(); }
  std::vector<std::byte> take() { return std::move(buf_); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::byte>& buf)
      : data_{buf.data()}, size_{buf.size()} {}
  ByteReader(const std::byte* data, std::size_t size) : data_{data}, size_{size} {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() {
    const auto hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  net::Ipv4Addr addr() { return net::Ipv4Addr{u32()}; }
  std::vector<std::byte> bytes(std::size_t n) {
    if (!need(n)) return {};
    std::vector<std::byte> out{data_ + pos_, data_ + pos_ + n};
    pos_ += n;
    return out;
  }
  void skip(std::size_t n) {
    if (need(n)) pos_ += n;
  }

  std::size_t remaining() const { return failed_ ? 0 : size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool ok() const { return !failed_; }
  /// Force-fail (semantic error discovered by the caller).
  void fail() { failed_ = true; }

  /// A sub-reader over the next n bytes; consumes them from this reader.
  ByteReader sub(std::size_t n) {
    if (!need(n)) return ByteReader{data_, 0};
    ByteReader r{data_ + pos_, n};
    pos_ += n;
    return r;
  }

 private:
  bool need(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_{0};
  bool failed_{false};
};

}  // namespace bgpsdn::bgp
