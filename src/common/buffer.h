// Byte-buffer serialization used for two purposes:
//   1. canonical encoding of server states (the adversary harness compares
//      and counts state vectors by their serialized form), and
//   2. measuring state/message sizes in bits for storage-cost accounting.
//
// Encodings are length-prefixed and deterministic; equal logical states
// serialize to equal byte strings.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace memu {

using Bytes = std::vector<std::uint8_t>;

// Appends primitive values in little-endian order, in one of two modes:
//   - storing (the default): to a growing byte vector, whole words at a
//     time;
//   - hashing (BufWriter::hashing()): the same calls fold the bytes the
//     storing mode would have written straight into FNV-1a plus a length
//     count, so fingerprint() equals fingerprint64() of that encoding and
//     nothing is allocated. World::state_hash() streams process states and
//     message payloads through this mode.
class BufWriter {
 public:
  BufWriter() = default;

  // Writes into `reuse`'s storage: the buffer is cleared but its capacity
  // is kept, so encode-measure loops (and the explorer's exact-dedupe path)
  // recycle one allocation instead of growing a fresh vector per encoding.
  // Retrieve the result with std::move(w).take().
  explicit BufWriter(Bytes&& reuse) : out_(std::move(reuse)) { out_.clear(); }

  static BufWriter hashing() {
    BufWriter w;
    w.hashing_ = true;
    return w;
  }

  void u8(std::uint8_t v) { word(v); }
  void u32(std::uint32_t v) { word(v); }
  void u64(std::uint64_t v) { word(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  // Length-prefixed byte string.
  void bytes(std::span<const std::uint8_t> data) {
    u64(data.size());
    append(data);
  }

  void str(std::string_view s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  // Storing mode only.
  const Bytes& data() const& {
    MEMU_CHECK(!hashing_);
    return out_;
  }
  Bytes take() && {
    MEMU_CHECK(!hashing_);
    return std::move(out_);
  }

  // Bytes written (or, hashing, that would have been written).
  std::size_t size() const { return hashing_ ? len_ : out_.size(); }

  // fingerprint64() of the encoding, in either mode.
  std::uint64_t fingerprint() const {
    return hashing_ ? fingerprint_finish(fnv_, len_) : fingerprint64(out_);
  }

 private:
  template <class T>
  void word(T v) {
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    append(le);
  }

  void append(std::span<const std::uint8_t> data) {
    if (hashing_) {
      fnv_ = fnv1a64_update(fnv_, data);
      len_ += data.size();
      return;
    }
    if (data.empty()) return;
    const std::size_t at = out_.size();
    out_.resize(at + data.size());
    std::memcpy(out_.data() + at, data.data(), data.size());
  }

  Bytes out_;
  bool hashing_ = false;
  std::uint64_t fnv_ = kFnv64Offset;  // hashing mode: running FNV-1a state
  std::uint64_t len_ = 0;             // hashing mode: bytes folded so far
};

// Reads primitives back out of a byte span; throws ContractError on
// truncated input (malformed snapshots are programming errors here, not
// external input).
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }

  bool boolean() { return u8() != 0; }

  Bytes bytes() {
    const std::uint64_t n = u64();
    need(n);
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  std::string str() {
    const Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::uint64_t n) const {
    MEMU_CHECK_MSG(pos_ + n <= data_.size(), "truncated buffer read");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace memu
