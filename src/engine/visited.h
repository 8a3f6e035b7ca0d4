// VisitedSet: deduplication over canonical World encodings.
//
// Storage is open addressing over raw 64-bit fingerprints — a flat
// power-of-two slot array probed linearly, no nodes, no buckets, no
// per-entry heap allocation. The set is split into a fixed power-of-two
// number of shards by the fingerprint's low bits, each with its own table
// and mutex, so concurrent frontier workers only meet on the same shard.
// Opt-in exact mode additionally keeps every full encoding in a per-shard
// byte slab (slots carry an offset/length into it) for collision-paranoid
// runs: a fingerprint collision would silently merge two distinct states;
// at 64 bits the expected collision count for S states is ~S^2 / 2^65, and
// in exact mode colliding fingerprints are disambiguated by byte compare.
//
// Concurrency contract (fingerprint mode): a HIT takes no lock. Each shard
// publishes its current table — a capacity header word followed by the
// slots — through an atomic pointer stored with release; try_insert()
// probes it with relaxed atomic loads and answers "present" on a match.
// Only a miss takes the shard mutex, probes again (the table may have
// grown, or a racing inserter may have won) and inserts or grows. Growth
// rehashes into a doubled table, publishes it, and RETIRES the old one:
// the old table stays allocated until ~VisitedSet, so a reader still
// probing it never touches freed memory, but its pages are dropped
// (MADV_DONTNEED) and read back as zeros — "absent" — which sends the
// reader to the locked path. A retired table is a subset of the live one,
// so a lock-free "present" is never wrong; only the locked path answers
// "fresh", so of any set of racing inserters of one key exactly one sees
// it. Exact mode probes under the mutex throughout: its slab can move.
//
// Memory contract (the mccortex shape): with Options::budget_bytes set,
// the slot tables and slabs are carved out of ONE pre-allocated
// common/arena.h Arena, capacity fitted to the budget up front — the set
// never allocates past the budget, and filling it beyond the load limit
// CHECK-fails with a sizing diagnostic in --mem terms instead of growing.
// A budget too small to give every shard kMinCapacity slots is split over
// fewer shards. Unbudgeted (budget_bytes == 0), a shard allocates
// kInitialCapacity slots on its first insert and doubles on demand, so an
// empty set costs only its shard headers. Either way memory_bytes() is
// EXACT — live slots x slot width plus slab bytes — not the old per-key
// estimate that ignored unordered_set node/bucket overhead.
//
// Membership-then-insert is a single operation: try_insert() probes the
// table once and reports whether the key was fresh, so the frontier's hot
// path has no contains()+insert() double lookup and no lost-race branch.
// contains() remains for tests and read-only queries.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/buffer.h"
#include "common/hash.h"

namespace memu::engine {

class VisitedSet {
 public:
  struct Options {
    bool exact = false;  // keep full encodings alongside fingerprints
    // Hard memory cap in bytes; 0 = unbudgeted (grow on demand). Budgeted
    // sets fit their capacity to the budget at construction and CHECK-fail
    // with a sizing hint when the state space needs more.
    std::size_t budget_bytes = 0;
  };

  // Shards of an unbudgeted set; a fingerprint's low bits pick its shard.
  static constexpr std::size_t kShards = 64;
  // Slots of a shard's first table; tables double past a 3/4 load.
  static constexpr std::size_t kInitialCapacity = 16;
  // Smallest table a budgeted shard may be fitted with; a budget that
  // cannot give one shard this many is rejected at construction.
  static constexpr std::size_t kMinCapacity = 64;

  explicit VisitedSet(const Options& opt);
  ~VisitedSet();

  // Inserts `key`; returns true iff it was not already present (one table
  // probe). Safe to call concurrently: for any set of racing inserters of
  // the same key, exactly one observes "fresh". A fingerprint collision in
  // non-exact mode reports a false "already present"; see header comment.
  bool try_insert(const Bytes& key);

  // Fingerprint-direct insert: the caller already holds the 64-bit state
  // fingerprint (World::state_hash()), so nothing is encoded or hashed
  // here. Fingerprint mode only (contract violation in exact mode — a raw
  // fingerprint cannot be compared against full encodings).
  bool try_insert(std::uint64_t fp);

  // Read-only membership (same probe; kept for tests and for paths that
  // must not insert, e.g. classifying cap-rejected states).
  bool contains(const Bytes& key) const;
  bool contains(std::uint64_t fp) const;  // fingerprint mode only

  std::size_t size() const;

  // kShards, or fewer for a budget too small to give each kMinCapacity.
  std::size_t shard_count() const { return shard_count_; }

  // EXACT bytes backing the set: live slot-table capacity x slot width,
  // plus (exact mode) the encoding slab. This is real allocated memory, the
  // number a --mem budget is debited by — not a per-key estimate. Retired
  // tables are not counted: their pages are returned to the OS.
  std::size_t memory_bytes() const;

 private:
  // Where an exact-mode entry's encoding lives inside its shard's slab.
  struct SlabRef {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
  };

  // Exact-mode side tables of one shard: refs[] runs parallel to the
  // live table's slots. Budgeted shards point into the arena; unbudgeted
  // ones own heap vectors.
  struct Exact {
    SlabRef* refs = nullptr;
    std::uint8_t* slab = nullptr;
    std::size_t slab_capacity = 0;
    std::size_t slab_used = 0;
    std::vector<SlabRef> heap_refs;
    std::vector<std::uint8_t> heap_slab;
  };

  // The locked half of a shard (its table pointer lives in tables_). One
  // cache line each, so locking one shard does not evict its neighbors.
  // A slot value of 0 marks a free slot: a genuine all-zero fingerprint is
  // tracked by zero_present in fingerprint mode; exact mode remaps it to 1
  // before probing, which is sound there because byte comparison — not the
  // fingerprint — decides equality.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::size_t entries = 0;
    std::atomic<bool> zero_present{false};
    std::unique_ptr<Exact> exact;  // exact mode only
  };

  std::size_t shard_of(std::uint64_t fp) const {
    return static_cast<std::size_t>(fp) & (shard_count_ - 1);
  }

  bool find(std::size_t shard, const std::uint64_t* t, std::uint64_t slot_fp,
            const Bytes* key, std::size_t& idx) const;
  bool seen_lock_free(std::size_t shard, std::uint64_t fp) const;
  bool insert_locked(std::size_t shard, std::uint64_t fp, const Bytes* key);
  bool contains_locked(std::size_t shard, std::uint64_t fp,
                       const Bytes* key) const;
  void grow(std::size_t shard);

  bool exact_;
  std::size_t budget_bytes_ = 0;
  std::size_t shard_count_ = kShards;
  std::optional<Arena> arena_;  // engaged iff budgeted
  // Published tables, one per shard: word 0 is the capacity, words
  // 1..capacity the slots. Written only under the shard's mutex.
  alignas(64) std::array<std::atomic<std::uint64_t*>, kShards> tables_{};
  std::unique_ptr<Shard[]> shards_;
  std::mutex retired_mu_;
  std::vector<std::uint64_t*> retired_;  // grown-out tables, freed at exit
};

}  // namespace memu::engine
