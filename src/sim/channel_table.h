// ChannelTable: sparse (src, dst)-keyed storage for in-flight messages,
// with copy-on-write message blocks.
//
// The explorer forks a World per transition, and at any moment only a
// handful of the n^2 channels hold messages, so the table keeps ONLY the
// non-empty channels, in one vector sorted by (src, dst): lookups are a
// binary search, iteration in vector order is the deterministic (src, dst)
// order the round-robin scheduler and the canonical encoding rely on, and
// a fork costs one allocation plus a refcount bump per non-empty channel.
//
// Each channel is a MsgQueue: a [begin, end) VIEW over a persistent CHAIN of
// refcounted slab blocks of Messages (common/arena.h), newest block first —
// the same shape as the oplog's chunk chain. Sharing a queue between copied
// tables is one refcount bump, and — unlike the previous shared_ptr<vector>
// design, which deep-copied the whole vector on the first push or pop after
// a fork — NO mutation in a FIFO execution copies message bytes:
//   - popping the front (every FIFO delivery) advances begin_ in the view;
//   - popping the back drops end_ (releasing head blocks the view no
//     longer reaches);
//   - appending claims the head block's next uninitialized slot via a CAS
//     on its `constructed` counter, writing in place — sibling views end
//     before the new slot and never see it;
//   - when the CAS loses (a sibling fork already claimed the slot) or the
//     head block is full, a fresh block is CHAINED in front of the frozen
//     one — zero bytes moved, exactly like a sharing-forced oplog chunk.
// A copy is materialized only when a middle message is removed
// (reorder/drop faults re-home the survivors into one fresh block). That
// is what takes cow_bytes_per_state from ~610 to under 200 on the explore
// bench.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/hash.h"
#include "sim/cow_stats.h"
#include "sim/message.h"
#include "sim/state_hash.h"

namespace memu {

// Shared "no such index" sentinel for in-channel message positions (was
// three separate constexpr npos definitions inside world.cpp).
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// One channel's pending messages: a view over a persistent chain of shared
// slab blocks (newest first, linked through `prev` like the oplog's
// chunks). Each block covers logical indices [base, base + capacity);
// slots [0, constructed) hold live Messages and are immutable once
// written; `constructed` only grows. Every view satisfies
// begin_ <= end_, reads nothing past its own end_, and mutates a block
// only by claiming the slot at its own end_ (the CAS makes concurrent
// sibling claims safe: the loser chains a fresh block instead).
class MsgQueue {
 public:
  using value_type = Message;

  // Logical-index iterator: element access walks the block chain from the
  // newest block, so iteration costs O(depth * chain length). Chains stay
  // as short as the fork pattern that produced them (usually 1-2 blocks),
  // and queues in these models are shallow, so this loses to a raw pointer
  // only by a predictable-branch block-bounds check per element.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    using pointer = const Message*;
    using reference = const Message&;

    const_iterator() = default;
    const_iterator(const MsgQueue* q, std::size_t i) : q_(q), i_(i) {}

    reference operator*() const { return (*q_)[i_]; }
    pointer operator->() const { return &(*q_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const MsgQueue* q_ = nullptr;
    std::size_t i_ = 0;
  };

  MsgQueue() = default;

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }

  const Message& operator[](std::size_t i) const {
    const std::size_t idx = begin_ + i;
    const Block* c = head_.get();
    while (c->base > idx) c = c->prev.get();
    return c->slots()[idx - c->base];
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  void push_back(Message msg) {
    if (head_ && end_ - head_->base < head_->capacity) {
      const std::uint32_t slot =
          static_cast<std::uint32_t>(end_ - head_->base);
      std::uint32_t expected = slot;
      if (head_->constructed.compare_exchange_strong(
              expected, slot + 1, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        new (head_->slots() + slot) Message(std::move(msg));
        ++end_;
        return;
      }
      // A sibling fork already claimed the slot: the block is frozen for
      // this view, and a fresh block is chained in front of it — zero
      // message bytes move (metered as a 0-byte detach, like a
      // sharing-forced oplog chain).
      cowstats::note_queue_detach(0);
    }
    chain_block();
    new (head_->slots()) Message(std::move(msg));
    head_->constructed.store(1, std::memory_order_release);
    ++end_;
  }

  // Removes and returns the message at `index`. Front and back removals
  // adjust the view; only a middle removal re-homes the survivors.
  Message pop(std::size_t index) {
    MEMU_CHECK(index < size());
    Message out = (*this)[index];
    if (index == 0) {
      ++begin_;
    } else if (begin_ + index + 1 == end_) {
      --end_;
      // Release head blocks the shrunk view no longer reaches.
      while (head_ && end_ <= head_->base) {
        SlabRef<Block> p = head_->prev;
        head_ = std::move(p);
      }
    } else {
      detach(index);
    }
    if (begin_ == end_) clear();
    return out;
  }

  void clear() {
    head_.reset();
    begin_ = end_ = 0;
  }

 private:
  struct Block {
    Block(std::uint32_t cap, std::size_t base_index)
        : capacity(cap), base(base_index) {}
    ~Block() {
      Message* s = slots();
      const std::uint32_t n = constructed.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < n; ++i) s[i].~Message();
    }
    Message* slots() { return reinterpret_cast<Message*>(this + 1); }
    const Message* slots() const {
      return reinterpret_cast<const Message*>(this + 1);
    }

    SlabRef<Block> prev;      // older messages; immutable once chained
    const std::uint32_t capacity;
    std::atomic<std::uint32_t> constructed{0};
    const std::size_t base;   // logical index of slots()[0]
  };
  static_assert(sizeof(Block) % alignof(Message) == 0,
                "messages start straight after the block header");

  static constexpr std::uint32_t kInitialCapacity = 4;
  // Chained blocks double up to this cap, bounding both slab waste from a
  // deep queue and the chain length operator[] walks.
  static constexpr std::uint32_t kMaxCapacity = 64;

  static SlabRef<Block> make_block(std::uint32_t capacity,
                                   std::size_t base_index) {
    void* mem =
        local_pool().alloc(sizeof(Block) + capacity * sizeof(Message));
    return SlabRef<Block>::adopt(new (mem) Block(capacity, base_index));
  }

  // Freezes the current head (if any) and chains a fresh empty block in
  // front of it, covering logical indices from end_ on.
  void chain_block() {
    const std::uint32_t cap =
        head_ ? std::min(head_->capacity * 2, kMaxCapacity)
              : kInitialCapacity;
    SlabRef<Block> b = make_block(cap, end_);
    b->prev = std::move(head_);
    head_ = std::move(b);
  }

  // Middle removal: copies the survivors into one fresh exclusive block —
  // the only path that materializes message bytes, and the one cowstats
  // meters with a non-zero byte count.
  void detach(std::size_t skip) {
    const std::uint32_t n = static_cast<std::uint32_t>(size());
    const std::uint32_t survivors = n - 1;
    std::uint32_t cap = kInitialCapacity;
    while (cap < survivors) cap *= 2;
    SlabRef<Block> fresh = make_block(cap, 0);
    Message* dst = fresh->slots();
    std::uint32_t m = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i == skip) continue;
      new (dst + m++) Message((*this)[i]);
    }
    fresh->constructed.store(m, std::memory_order_release);
    cowstats::note_queue_detach(std::uint64_t{survivors} * sizeof(Message));
    head_ = std::move(fresh);
    begin_ = 0;
    end_ = m;
  }

  // Newest block of the chain this view can reach; invariant
  // head_->base <= end_ whenever the view is non-empty.
  SlabRef<Block> head_;
  std::size_t begin_ = 0;  // logical index of the first live message
  std::size_t end_ = 0;    // logical index one past the last live message
};

class ChannelTable {
 public:
  using Queue = MsgQueue;

  // Raises the node count endpoint checks accept. Channels are keyed by
  // (src, dst), not by a slot index, so growing moves nothing.
  void set_node_count(std::size_t n) { nodes_ = std::max(nodes_, n); }

  void push(ChannelId chan, Message msg) {
    // The payload carries its fingerprint (computed once, in make_msg);
    // queue hash folds and the World's incremental state hash reuse the
    // copy for the message's whole in-flight lifetime (including across
    // COW copies).
    if (msg.payload_fp == 0) msg.payload_fp = msg.payload->fingerprint();
    const std::uint64_t key = key_of(chan);
    auto it = lower_bound(entries_, key);
    if (it == entries_.end() || it->key != key) {
      it = entries_.insert(it, Entry{key, MsgQueue{}});
    } else {
      content_hash_ ^= chan_component(chan, it->q);
    }
    it->q.push_back(std::move(msg));
    content_hash_ ^= chan_component(chan, it->q);
  }

  // Removes and returns the message at `index` on `chan`.
  Message pop(ChannelId chan, std::size_t index) {
    const std::uint64_t key = key_of(chan);
    const auto it = lower_bound(entries_, key);
    MEMU_CHECK(it != entries_.end() && it->key == key && index < it->q.size());
    content_hash_ ^= chan_component(chan, it->q);
    Message msg = it->q.pop(index);
    if (it->q.empty()) {
      entries_.erase(it);
    } else {
      content_hash_ ^= chan_component(chan, it->q);
    }
    return msg;
  }

  // Incremental 64-bit hash of the full channel contents: XOR over
  // non-empty channels of a keyed fold of their message fingerprints, in
  // queue order. Maintained in O(queue depth) per push/pop; a component of
  // World::state_hash(). Keys depend only on (src, dst).
  std::uint64_t content_hash() const { return content_hash_; }

  // The content_hash() this table would have after pop(popped, index) and
  // then a push of each of `sends` on (sender, its destination), in order,
  // computed without mutating the table: only the popped channel and each
  // distinct channel a send lands on are refolded. World::probe_deliver
  // hashes a successor state through this.
  std::uint64_t hash_after(
      ChannelId popped, std::size_t index, NodeId sender,
      const std::vector<std::pair<NodeId, MessagePtr>>& sends) const {
    std::uint64_t h = content_hash_;
    bool popped_refolded = false;
    for (std::size_t i = 0; i < sends.size(); ++i) {
      const NodeId dst = sends[i].first;
      bool repeat = false;
      for (std::size_t j = 0; j < i && !repeat; ++j)
        repeat = sends[j].first == dst;
      if (repeat) continue;  // refolded with its first send
      const ChannelId chan{sender, dst};
      const bool is_popped = chan == popped;
      popped_refolded |= is_popped;
      h ^= refold_delta(chan, is_popped ? index : kNoIndex, sends, i);
    }
    if (!popped_refolded) h ^= refold_delta(popped, index, sends, sends.size());
    return h;
  }

  // O(total payload bytes) from-scratch recomputation — the differential-
  // test oracle for the incremental hash. Deliberately re-encodes every
  // payload instead of trusting the cached per-message fingerprints, so a
  // stale or miscomputed cache shows up as a mismatch.
  std::uint64_t recompute_content_hash() const {
    std::uint64_t h = 0;
    for_each_nonempty([&h](ChannelId chan, const Queue& q) {
      std::uint64_t fold = statehash::kQueueFoldSeed;
      for (const Message& m : q)
        fold = mix64(fold ^ fingerprint64(m.payload->encode()));
      h ^= mix64(statehash::chan_key(chan.src.value, chan.dst.value) ^ fold);
    });
    return h;
  }

  // Non-empty queue for `chan`, or nullptr. The pointer is invalidated by
  // the next push or pop on any channel.
  const Queue* find(ChannelId chan) const {
    if (chan.src.value >= nodes_ || chan.dst.value >= nodes_) return nullptr;
    const std::uint64_t key = pack(chan);
    const auto it = lower_bound(entries_, key);
    return it != entries_.end() && it->key == key ? &it->q : nullptr;
  }

  std::size_t depth(ChannelId chan) const {
    const Queue* q = find(chan);
    return q == nullptr ? 0 : q->size();
  }

  std::size_t nonempty_count() const { return entries_.size(); }

  std::size_t total_messages() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) n += e.q.size();
    return n;
  }

  // Visits non-empty channels in ascending (src, dst) order.
  template <class Fn>
  void for_each_nonempty(Fn&& fn) const {
    for (const Entry& e : entries_) fn(unpack(e.key), e.q);
  }

  // Order-sensitive fold of `chan`'s queue contents (a fixed constant for
  // an empty channel). Symmetry canonicalization (sim/symmetry.cpp) builds
  // per-server signatures from these folds without re-encoding payloads.
  std::uint64_t queue_fold(ChannelId chan) const {
    const Queue* q = find(chan);
    return q == nullptr ? statehash::kQueueFoldSeed : fold_queue(*q);
  }

 private:
  // One non-empty channel. Kept to a key plus a 24-byte view so the
  // sorted-vector insert and erase move little.
  struct Entry {
    std::uint64_t key;  // src << 32 | dst: numeric order is (src, dst) order
    MsgQueue q;
  };

  static std::uint64_t pack(ChannelId chan) {
    return std::uint64_t{chan.src.value} << 32 | chan.dst.value;
  }
  static ChannelId unpack(std::uint64_t key) {
    return ChannelId{NodeId{static_cast<std::uint32_t>(key >> 32)},
                     NodeId{static_cast<std::uint32_t>(key)}};
  }

  std::uint64_t key_of(ChannelId chan) const {
    MEMU_CHECK(chan.src.value < nodes_ && chan.dst.value < nodes_);
    return pack(chan);
  }

  // The first entry at or after `key` (binary search; const or not).
  template <class Entries>
  static auto lower_bound(Entries& entries, std::uint64_t key)
      -> decltype(entries.begin()) {
    return std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry& e, std::uint64_t k) { return e.key < k; });
  }

  // Order-sensitive fold of a queue's message fingerprints: each step
  // mixes, so [a, b] and [b, a] fold differently and the fold length is
  // implicit. O(depth) — refolded on every push/pop of the queue, using
  // the fingerprints cached at enqueue (no payload re-encode).
  static std::uint64_t fold_queue(const Queue& q) {
    std::uint64_t h = statehash::kQueueFoldSeed;
    for (const Message& m : q) h = mix64(h ^ m.payload_fp);
    return h;
  }

  static std::uint64_t chan_component(ChannelId chan, const Queue& q) {
    return mix64(statehash::chan_key(chan.src.value, chan.dst.value) ^
                 fold_queue(q));
  }

  // Old XOR new component of `chan` when the message at `skip` (kNoIndex:
  // none) leaves it and sends[first..] addressed to chan.dst join it; an
  // emptied channel's component is 0, as if its entry were erased.
  std::uint64_t refold_delta(
      ChannelId chan, std::size_t skip,
      const std::vector<std::pair<NodeId, MessagePtr>>& sends,
      std::size_t first) const {
    const Queue* q = find(chan);
    std::uint64_t fold = statehash::kQueueFoldSeed;
    bool any = false;
    std::uint64_t old = 0;
    if (q != nullptr) {
      old = chan_component(chan, *q);
      std::size_t i = 0;
      for (const Message& m : *q) {
        if (i++ == skip) continue;
        fold = mix64(fold ^ m.payload_fp);
        any = true;
      }
    }
    for (std::size_t j = first; j < sends.size(); ++j) {
      if (sends[j].first != chan.dst) continue;
      fold = mix64(fold ^ sends[j].second->fingerprint());
      any = true;
    }
    const std::uint64_t now =
        any ? mix64(statehash::chan_key(chan.src.value, chan.dst.value) ^ fold)
            : 0;
    return old ^ now;
  }

  std::size_t nodes_ = 0;
  std::vector<Entry> entries_;      // non-empty queues only, sorted by key
  std::uint64_t content_hash_ = 0;  // incremental; see content_hash()
};

}  // namespace memu
