// Operation log: the externally visible behavior of an execution.
//
// Clients record invocation and response events here; the consistency
// checkers (atomicity / regularity) and the adversary's valency prober
// consume it. The log lives inside the World so that cloned executions
// carry their own diverging histories.
//
// Storage is a persistent chain of small chunks (newest first), each a
// refcounted slab slot (common/arena.h) carrying its events INLINE — one
// slab allocation per kChunkCapacity events, with no separate control
// block or events-vector heap node. Copying an OpLog (and therefore a
// World) is one refcount bump. Appending to a log whose head chunk is
// shared with another copy never copies history: the shared chunk is
// frozen in place and a fresh chunk is chained in front of it, so a forked
// execution pays O(its own new events) no matter how long the inherited
// history is. In-place appends happen only when the head chunk is
// exclusively owned and below capacity.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/buffer.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/ids.h"
#include "sim/cow_stats.h"
#include "sim/state_hash.h"

namespace memu {

enum class OpType : std::uint8_t { kRead, kWrite };

struct OpEvent {
  // kFault marks an injected fault (crash, recover, drop, ...) at its
  // position between operation events — written by World::log_fault, with
  // the human-readable description in `value`. Fault events are part of the
  // log (and its content hash) but are skipped by History::from_oplog and
  // every consistency checker: they tag behavior, they are not operations.
  enum class Kind : std::uint8_t { kInvoke, kResponse, kFault };

  Kind kind = Kind::kInvoke;
  NodeId client;
  std::uint64_t op_id = 0;  // unique per invocation within a World
  OpType type = OpType::kRead;
  // For a write invoke: the value written. For a read response: the value
  // returned. For a fault: the description bytes. Empty otherwise.
  Bytes value;
  std::uint64_t step = 0;  // world step count at which the event occurred
};

// Append-only event log.
class OpLog {
 public:
  void append(OpEvent e) {
    // Position-keyed component: the log is append-only, so the hash folds
    // each event in exactly once, in O(1), at its final index. `step` is
    // excluded, mirroring the canonical World encoding (log order alone
    // carries precedence).
    content_hash_ ^= statehash::component(statehash::kOplogSeed, size_,
                                          event_fp(e));
    if (!head_ || head_.use_count() > 1 || head_->count >= kChunkCapacity) {
      if (head_ && head_.use_count() > 1 && head_->count < kChunkCapacity) {
        // Sharing forced the chain; no bytes are copied — the shared chunk
        // is simply frozen where it is.
        cowstats::note_oplog_detach(0);
      }
      SlabRef<Chunk> c = slab_make<Chunk>();
      c->prev = std::move(head_);
      c->base = size_;
      head_ = std::move(c);
    }
    new (head_->events() + head_->count) OpEvent(std::move(e));
    ++head_->count;
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Incremental 64-bit hash of the event sequence (kind, client, op id,
  // type, value — step excluded, like the canonical encoding). A component
  // of World::state_hash(); equal logs hash equally regardless of chunk
  // layout, since components are keyed by logical index.
  std::uint64_t content_hash() const { return content_hash_; }

  // O(n) from-scratch recomputation — the differential-test oracle.
  std::uint64_t recompute_content_hash() const {
    std::uint64_t h = 0;
    std::size_t i = 0;
    for_each([&](const OpEvent& e) {
      h ^= statehash::component(statehash::kOplogSeed, i++, event_fp(e));
    });
    return h;
  }

  // Random access. O(1) near the end of the log, O(#chunks) worst case —
  // cursor-style scans of recent events (the common pattern) stay cheap.
  const OpEvent& operator[](std::size_t i) const {
    MEMU_CHECK_MSG(i < size_, "oplog index " << i << " out of range");
    const Chunk* c = head_.get();
    while (c->base > i) c = c->prev.get();
    return c->events()[i - c->base];
  }

  const OpEvent& back() const {
    MEMU_CHECK_MSG(size_ > 0, "back() on empty oplog");
    return head_->events()[head_->count - 1];
  }

  // In-order visit of every event: one O(#chunks) pointer collection, then
  // a linear pass. The canonical World encoding iterates through this, so
  // the emitted bytes are independent of the chunk layout.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::vector<const Chunk*> chain;
    for (const Chunk* c = head_.get(); c != nullptr; c = c->prev.get())
      chain.push_back(c);
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
      for (std::uint32_t i = 0; i < (*it)->count; ++i) fn((*it)->events()[i]);
  }

  // Flattened snapshot of the whole log. O(n) copy — meant for checkers
  // and tests; hot paths should use operator[], back(), or for_each().
  std::vector<OpEvent> events() const {
    std::vector<OpEvent> out;
    out.reserve(size_);
    for_each([&out](const OpEvent& e) { out.push_back(e); });
    return out;
  }

  // Whether operation `op_id` has a response event.
  bool responded(std::uint64_t op_id) const {
    return find_response(op_id) != nullptr;
  }

  // The value returned by operation `op_id`, if it responded.
  std::optional<Bytes> response_value(std::uint64_t op_id) const {
    const OpEvent* e = find_response(op_id);
    if (e == nullptr) return std::nullopt;
    return e->value;
  }

  // Content fingerprint of one event, field-mixed without serialization.
  // Deliberately omits e.step (not part of the canonical state). An event
  // appended at index i contributes component(kOplogSeed, i, event_fp(e))
  // to content_hash().
  static std::uint64_t event_fp(const OpEvent& e) {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(e.kind) |
                            (std::uint64_t{e.client.value} << 8) |
                            (static_cast<std::uint64_t>(e.type) << 40));
    h = mix64(h ^ e.op_id);
    return mix64(h ^ fingerprint64(e.value));
  }

  // Number of responses after (and including) index `from`.
  std::size_t responses_since(std::size_t from) const {
    std::size_t n = 0;
    for (const Chunk* c = head_.get();
         c != nullptr && c->base + c->count > from; c = c->prev.get()) {
      const std::size_t lo = from > c->base ? from - c->base : 0;
      for (std::size_t i = lo; i < c->count; ++i)
        if (c->events()[i].kind == OpEvent::Kind::kResponse) ++n;
    }
    return n;
  }

 private:
  // Newest-first scan: responses live near the end of the log, and at most
  // one response exists per op id, so direction does not change the result.
  const OpEvent* find_response(std::uint64_t op_id) const {
    for (const Chunk* c = head_.get(); c != nullptr; c = c->prev.get()) {
      for (std::uint32_t i = c->count; i-- > 0;) {
        const OpEvent& e = c->events()[i];
        if (e.op_id == op_id && e.kind == OpEvent::Kind::kResponse)
          return &e;
      }
    }
    return nullptr;
  }

  static constexpr std::size_t kChunkCapacity = 8;

  // A chunk is mutated only while exclusively owned (use_count() == 1);
  // once any copy or a newer chunk references it, it is immutable, so the
  // chain behaves as a persistent data structure. Events sit inline:
  // [0, count) are constructed, destroyed with the chunk when its last
  // reference drops.
  struct Chunk {
    ~Chunk() {
      for (std::uint32_t i = 0; i < count; ++i) events()[i].~OpEvent();
    }
    OpEvent* events() { return reinterpret_cast<OpEvent*>(storage); }
    const OpEvent* events() const {
      return reinterpret_cast<const OpEvent*>(storage);
    }

    SlabRef<Chunk> prev;      // older events, immutable
    std::size_t base = 0;     // number of events before this chunk
    std::uint32_t count = 0;  // constructed events in `storage`
    alignas(OpEvent) unsigned char storage[kChunkCapacity * sizeof(OpEvent)];
  };

  SlabRef<Chunk> head_;
  std::size_t size_ = 0;
  std::uint64_t content_hash_ = 0;  // incremental; see content_hash()
};

}  // namespace memu
