// Messages exchanged over the emulated point-to-point channels.
//
// Payloads are immutable once sent: Worlds share them via shared_ptr<const>,
// which makes deep-copying a World (required by the adversary harness) cheap
// and safe. Every payload reports its size in bits, split into value bits and
// metadata bits, so channel contents can participate in storage accounting
// and so the adversary can classify messages as value-dependent or not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/bits.h"
#include "common/buffer.h"
#include "common/ids.h"

namespace memu {

// Base class of all protocol messages.
class MessagePayload {
 public:
  MessagePayload() = default;
  // The cached fingerprint is not content: a copy re-derives its own (a
  // copy may be mutated before it is published).
  MessagePayload(const MessagePayload&) {}
  MessagePayload& operator=(const MessagePayload&) {
    fp_ = 0;
    return *this;
  }
  virtual ~MessagePayload() = default;

  // Human-readable message type, e.g. "abd.write_store". Overrides return
  // string literals, so reading (and fingerprinting) it allocates nothing.
  virtual std::string_view type_name() const = 0;

  // Size of this message, split into value and metadata bits.
  virtual StateBits size_bits() const = 0;

  // True when the message content depends on the value being written
  // (Definition 6.4 in the paper: value-dependent send actions). Query
  // messages, acks, and tag-only messages are value-independent.
  virtual bool value_dependent() const { return false; }

  // True when the message carries Theta(log|V|) bits of value information
  // (coded elements, full values). A value-dependent message of o(log|V|)
  // size — e.g. a hash sent for client verification, as in the Byzantine
  // algorithms the paper's Section 6.5 conjecture covers — is
  // value-dependent but NOT bulk.
  virtual bool value_bulk() const { return value_dependent(); }

  // Canonical content encoding: semantically equal messages must encode
  // equally, distinct ones differently. Used by the exhaustive interleaving
  // explorer to deduplicate World states. The default covers contentless
  // markers; any payload with fields must override.
  virtual void encode_content(BufWriter& w) const { (void)w; }

  // Full canonical encoding (type + content), into `w` or as bytes.
  void encode(BufWriter& w) const {
    w.str(type_name());
    encode_content(w);
  }
  Bytes encode() const {
    BufWriter w;
    encode(w);
    return std::move(w).take();
  }

  // fingerprint64(encode()). make_msg computes it once, before the payload
  // is shared, and this returns the cached value; a payload built any other
  // way streams its encoding through a hashing BufWriter on every call.
  std::uint64_t fingerprint() const {
    return fp_ != 0 ? fp_ : stream_fingerprint();
  }

 private:
  template <class T, class... Args>
  friend std::shared_ptr<const MessagePayload> make_msg(Args&&... args);

  std::uint64_t stream_fingerprint() const {
    BufWriter w = BufWriter::hashing();
    encode(w);
    return w.fingerprint();
  }

  // 0 = not cached (a zero fingerprint, one in 2^64, just re-streams).
  std::uint64_t fp_ = 0;
};

using MessagePtr = std::shared_ptr<const MessagePayload>;

// An in-flight message. The channel it sits on is implied by the slot
// holding it (ChannelTable indexes queues by (src, dst)), so a Message is
// just the payload handle plus its fingerprint — 24 bytes, the unit the
// channel message blocks are sized in.
struct Message {
  MessagePtr payload;
  // payload->fingerprint(), copied in by ChannelTable::push and carried
  // with the message ever after (duplicates, delays and COW copies
  // included), so the World's incremental state hash folds queues without
  // touching the payload. A broadcast payload from make_msg was hashed
  // once, however many channels it is pushed onto. 0 means "not yet
  // copied in" (push re-reads it harmlessly in the one-in-2^64 case).
  std::uint64_t payload_fp = 0;
};

// Convenience factory: make_msg<AbdQuery>(args...) -> MessagePtr. The
// payload is fingerprinted here, while this call still owns it, so the
// cache needs no synchronization once the pointer is shared.
template <class T, class... Args>
MessagePtr make_msg(Args&&... args) {
  auto p = std::make_shared<T>(std::forward<Args>(args)...);
  MessagePayload& base = *p;
  base.fp_ = base.stream_fingerprint();
  return p;
}

}  // namespace memu
