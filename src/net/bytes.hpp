// Copy-on-write byte buffer for packet payloads.
//
// A packet relayed across M hops used to be copied at every send and every
// delivery. Bytes keeps one refcounted buffer and copies only when someone
// actually writes (the fault-injection corruption path). Copying a Bytes is
// a shared_ptr bump. Each message is encoded into a buffer the packet then
// owns; only a withdraw-only UPDATE sent unchanged to several peers, and
// the fixed KEEPALIVE image, share one buffer across peers' packets.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

namespace bgpsdn::net {

class Bytes {
 public:
  Bytes() = default;
  // The buffer is built non-const (and only held as const), so mutate()
  // may write it in place once this is its sole owner.
  Bytes(std::vector<std::byte> data)  // NOLINT(google-explicit-constructor)
      : ptr_{data.empty()
                 ? nullptr
                 : std::make_shared<std::vector<std::byte>>(std::move(data))} {}
  Bytes(std::initializer_list<std::byte> init)
      : Bytes{std::vector<std::byte>(init)} {}

  /// Adopt a buffer that an encoder's cache may also hold (the cached
  /// withdraw-only UPDATE and KEEPALIVE images). The buffer must have been
  /// created as a non-const vector (e.g. via make_shared) so the
  /// copy-on-write unique-owner fast path in mutate() stays well-defined.
  static Bytes adopt(std::shared_ptr<const std::vector<std::byte>> data) {
    Bytes b;
    if (data != nullptr && !data->empty()) b.ptr_ = std::move(data);
    return b;
  }

  bool empty() const { return ptr_ == nullptr || ptr_->empty(); }
  std::size_t size() const { return ptr_ == nullptr ? 0 : ptr_->size(); }
  std::byte operator[](std::size_t i) const { return (*ptr_)[i]; }
  const std::byte* data() const { return ptr_ == nullptr ? nullptr : ptr_->data(); }

  const std::vector<std::byte>& vec() const {
    static const std::vector<std::byte> kEmpty;
    return ptr_ == nullptr ? kEmpty : *ptr_;
  }
  // Payload consumers (codecs, Session::receive) take const vector&.
  operator const std::vector<std::byte>&() const { return vec(); }  // NOLINT

  /// Writable view; clones the buffer first when it is shared.
  std::vector<std::byte>& mutate() {
    if (ptr_ == nullptr) {
      auto fresh = std::make_shared<std::vector<std::byte>>();
      auto& ref = *fresh;
      ptr_ = std::move(fresh);
      return ref;
    }
    if (ptr_.use_count() != 1) {
      auto fresh = std::make_shared<std::vector<std::byte>>(*ptr_);
      auto& ref = *fresh;
      ptr_ = std::move(fresh);
      return ref;
    }
    // Sole owner of a buffer that was constructed non-const (see adopt()).
    return const_cast<std::vector<std::byte>&>(*ptr_);
  }

  bool operator==(const Bytes& other) const {
    return ptr_ == other.ptr_ || vec() == other.vec();
  }
  bool operator==(const std::vector<std::byte>& other) const {
    return vec() == other;
  }

  /// True when this buffer is shared with at least one other holder
  /// (introspection for the fan-out tests).
  bool is_shared() const { return ptr_ != nullptr && ptr_.use_count() > 1; }

 private:
  std::shared_ptr<const std::vector<std::byte>> ptr_;
};

}  // namespace bgpsdn::net
