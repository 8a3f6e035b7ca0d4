#include "engine/visited.h"

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/check.h"

namespace memu::engine {

namespace {

constexpr std::uint64_t kEmpty = 0;

// Slot widths for exact memory accounting and budget fitting; a table adds
// one capacity header word.
constexpr std::size_t kFpSlot = sizeof(std::uint64_t);
constexpr std::size_t kRefSlot = 16;  // VisitedSet::SlabRef, padded

// Open addressing stays O(1) while occupancy <= 3/4; past it a budgeted
// shard fails loudly and an unbudgeted one doubles.
constexpr std::size_t load_limit(std::size_t capacity) {
  return capacity - capacity / 4;
}

// Probe start. Fingerprints are already mixed (fingerprint64 /
// World::state_hash), but the shard index consumed their low bits;
// remixing decorrelates the probe sequence from the shard split.
inline std::size_t probe_start(std::uint64_t fp, std::size_t capacity) {
  return static_cast<std::size_t>(mix64(fp)) & (capacity - 1);
}

// Exact mode reserves the kEmpty slot value; byte comparison decides
// equality there, so folding a genuine 0 fingerprint into 1 is sound.
inline std::uint64_t exact_slot_fp(std::uint64_t fp) {
  return fp == kEmpty ? 1 : fp;
}

// Table words are read by lock-free probes while the shard's lock holder
// writes them, so every access is atomic; relaxed order suffices because
// a slot's value is all a probe needs (tables are published by release).
inline std::uint64_t load_word(const std::uint64_t& w) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(w))
      .load(std::memory_order_relaxed);
}
inline void store_word(std::uint64_t& w, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(w).store(v, std::memory_order_relaxed);
}

std::uint64_t* heap_table(std::size_t capacity) {
  auto* t = static_cast<std::uint64_t*>(
      std::calloc(capacity + 1, sizeof(std::uint64_t)));
  if (t == nullptr) throw std::bad_alloc();
  t[0] = capacity;
  return t;
}

// Returns the whole pages inside [p, p + bytes) to the OS; they read back
// as zeros. The partial pages at either end stay as they are.
void drop_pages(void* p, std::size_t bytes) {
  const std::uintptr_t page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t lo =
      (reinterpret_cast<std::uintptr_t>(p) + page - 1) & ~(page - 1);
  const std::uintptr_t hi =
      (reinterpret_cast<std::uintptr_t>(p) + bytes) & ~(page - 1);
  if (lo < hi)
    madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

}  // namespace

VisitedSet::VisitedSet(const Options& opt)
    : exact_(opt.exact), budget_bytes_(opt.budget_bytes) {
  static_assert(sizeof(SlabRef) == kRefSlot);
  if (budget_bytes_ == 0) {
    shards_ = std::make_unique<Shard[]>(shard_count_);
    return;  // tables are allocated on first insert
  }

  // Budgeted: fit every shard's capacity to its share of the budget UP
  // FRONT (mccortex-style), all carved from one pre-allocated arena. A few
  // bytes per carve go to alignment and the header word, hence the small
  // per-shard reserve. Exact mode spends most of its share on the encoding
  // slab; the table takes a quarter. Fingerprint mode is all table.
  constexpr std::size_t kCarveSlack = 64 + kFpSlot;
  const std::size_t slot_width = exact_ ? kFpSlot + kRefSlot : kFpSlot;
  const auto fitted_capacity = [&](std::size_t shards) -> std::size_t {
    const std::size_t per_shard = budget_bytes_ / shards;
    const std::size_t table_share = exact_ ? per_shard / 4 : per_shard;
    return table_share > kCarveSlack + slot_width
               ? std::bit_floor((table_share - kCarveSlack) / slot_width)
               : 0;
  };
  // Fewer shards for a budget that cannot give each kMinCapacity slots.
  while (shard_count_ > 1 && fitted_capacity(shard_count_) < kMinCapacity)
    shard_count_ /= 2;
  const std::size_t capacity = fitted_capacity(shard_count_);
  MEMU_CHECK_MSG(
      capacity >= kMinCapacity,
      "visited-set budget too small: "
          << MemBudget{budget_bytes_}.to_string() << " across "
          << shard_count_ << " shard(s) fits " << capacity
          << " slots/shard (need >= " << kMinCapacity
          << "); rerun with --mem >= "
          << MemBudget{shard_count_ * slot_width * kMinCapacity *
                       (exact_ ? 8 : 2)}
                 .to_string());
  shards_ = std::make_unique<Shard[]>(shard_count_);
  arena_.emplace(budget_bytes_, "visited-set");
  const std::size_t per_shard = budget_bytes_ / shard_count_;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::uint64_t* t = arena_->alloc_array<std::uint64_t>(capacity + 1);
    t[0] = capacity;
    if (exact_) {
      auto& e = *(shards_[i].exact = std::make_unique<Exact>());
      e.refs = arena_->alloc_array<SlabRef>(capacity);
      e.slab_capacity = per_shard - capacity * slot_width - kCarveSlack;
      e.slab = static_cast<std::uint8_t*>(arena_->alloc(e.slab_capacity, 1));
    }
    tables_[i].store(t, std::memory_order_release);
  }
}

VisitedSet::~VisitedSet() {
  if (arena_.has_value()) return;  // the arena owns every table
  for (auto& t : tables_) std::free(t.load(std::memory_order_relaxed));
  for (std::uint64_t* t : retired_) std::free(t);
}

// Doubles the shard's table (or allocates its first) under the shard lock.
void VisitedSet::grow(std::size_t shard) {
  Shard& s = shards_[shard];
  std::uint64_t* old = tables_[shard].load(std::memory_order_relaxed);
  const std::size_t old_cap = old != nullptr ? old[0] : 0;
  MEMU_CHECK_MSG(
      !arena_.has_value(),
      "visited set at its --mem load limit: "
          << s.entries << " states fill " << old_cap
          << " slots of one of " << shard_count_
          << " shard(s) to the 3/4 bound (budget "
          << MemBudget{budget_bytes_}.to_string()
          << "); rerun with --mem >= "
          << MemBudget{budget_bytes_ * 2}.to_string()
          << " or switch to fingerprint dedupe");
  const std::size_t cap = old != nullptr ? old_cap * 2 : kInitialCapacity;
  std::uint64_t* t = heap_table(cap);
  std::vector<SlabRef> refs;
  if (exact_) {
    if (s.exact == nullptr) s.exact = std::make_unique<Exact>();
    refs.assign(cap, SlabRef{});
  }
  for (std::size_t i = 0; i < old_cap; ++i) {
    const std::uint64_t fp = load_word(old[1 + i]);
    if (fp == kEmpty) continue;
    std::size_t idx = probe_start(fp, cap);
    while (t[1 + idx] != kEmpty) idx = (idx + 1) & (cap - 1);
    t[1 + idx] = fp;
    if (exact_) refs[idx] = s.exact->refs[i];
  }
  tables_[shard].store(t, std::memory_order_release);
  if (exact_) {
    s.exact->heap_refs = std::move(refs);
    s.exact->refs = s.exact->heap_refs.data();
  }
  if (old == nullptr) return;
  drop_pages(old, (old_cap + 1) * sizeof(std::uint64_t));
  std::lock_guard<std::mutex> lock(retired_mu_);
  retired_.push_back(old);
}

// Walks `slot_fp`'s probe chain in table `t`: true with `idx` at the
// match, or false with `idx` at the free slot that ends the chain. `key`
// decides equality in exact mode. A header reading 0 is a retired table
// whose pages were dropped: it holds nothing.
bool VisitedSet::find(std::size_t shard, const std::uint64_t* t,
                      std::uint64_t slot_fp, const Bytes* key,
                      std::size_t& idx) const {
  const std::size_t cap = load_word(t[0]);
  if (cap == 0) return false;
  for (idx = probe_start(slot_fp, cap);; idx = (idx + 1) & (cap - 1)) {
    const std::uint64_t have = load_word(t[1 + idx]);
    if (have == kEmpty) return false;
    if (have != slot_fp) continue;
    if (!exact_) return true;
    const Exact& e = *shards_[shard].exact;
    const SlabRef& ref = e.refs[idx];
    if (ref.length == key->size() &&
        std::memcmp(e.slab + ref.offset, key->data(), ref.length) == 0)
      return true;
    // Exact-mode fingerprint collision: different bytes, same slot value
    // — keep probing; the colliding key lives further down the chain or
    // in a free slot.
  }
}

bool VisitedSet::seen_lock_free(std::size_t shard, std::uint64_t fp) const {
  if (fp == kEmpty)
    return shards_[shard].zero_present.load(std::memory_order_relaxed);
  const std::uint64_t* t = tables_[shard].load(std::memory_order_acquire);
  std::size_t idx;
  return t != nullptr && find(shard, t, fp, nullptr, idx);
}

bool VisitedSet::insert_locked(std::size_t shard, std::uint64_t fp,
                               const Bytes* key) {
  Shard& s = shards_[shard];
  if (!exact_ && fp == kEmpty) {
    // The sentinel value cannot occupy a slot; a dedicated flag keeps a
    // genuine all-zero fingerprint from colliding with "free".
    if (s.zero_present.load(std::memory_order_relaxed)) return false;
    s.zero_present.store(true, std::memory_order_relaxed);
    return true;
  }
  const std::uint64_t slot_fp = exact_ ? exact_slot_fp(fp) : fp;
  for (;;) {
    std::uint64_t* t = tables_[shard].load(std::memory_order_relaxed);
    std::size_t idx = 0;
    if (t != nullptr && find(shard, t, slot_fp, key, idx)) return false;
    if (t == nullptr || s.entries + 1 > load_limit(t[0])) {
      // First table, or an unbudgeted doubling; budgeted: CHECK-fails.
      grow(shard);
      continue;
    }
    if (exact_) {
      Exact& e = *s.exact;
      if (!arena_.has_value()) {
        e.heap_slab.insert(e.heap_slab.end(), key->begin(), key->end());
        e.slab = e.heap_slab.data();
      } else {
        MEMU_CHECK_MSG(
            e.slab_used + key->size() <= e.slab_capacity,
            "visited-set encoding slab exhausted: "
                << s.entries << " states consumed " << e.slab_used
                << " of " << e.slab_capacity << " B in one of "
                << shard_count_ << " shard(s) (budget "
                << MemBudget{budget_bytes_}.to_string()
                << "); rerun with --mem >= "
                << MemBudget{budget_bytes_ * 2}.to_string()
                << " or switch to fingerprint dedupe");
        std::memcpy(e.slab + e.slab_used, key->data(), key->size());
      }
      e.refs[idx] = {e.slab_used, static_cast<std::uint32_t>(key->size())};
      e.slab_used += key->size();
    }
    store_word(t[1 + idx], slot_fp);
    ++s.entries;
    return true;
  }
}

bool VisitedSet::contains_locked(std::size_t shard, std::uint64_t fp,
                                 const Bytes* key) const {
  if (!exact_ && fp == kEmpty)
    return shards_[shard].zero_present.load(std::memory_order_relaxed);
  const std::uint64_t* t = tables_[shard].load(std::memory_order_relaxed);
  std::size_t idx;
  return t != nullptr &&
         find(shard, t, exact_ ? exact_slot_fp(fp) : fp, key, idx);
}

bool VisitedSet::try_insert(const Bytes& key) {
  const std::uint64_t fp = fingerprint64(key);
  if (!exact_) return try_insert(fp);
  const std::size_t shard = shard_of(fp);
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return insert_locked(shard, fp, &key);
}

bool VisitedSet::try_insert(std::uint64_t fp) {
  MEMU_CHECK_MSG(!exact_, "fingerprint insert into an exact-mode VisitedSet");
  const std::size_t shard = shard_of(fp);
  if (seen_lock_free(shard, fp)) return false;
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return insert_locked(shard, fp, nullptr);
}

bool VisitedSet::contains(const Bytes& key) const {
  const std::uint64_t fp = fingerprint64(key);
  const std::size_t shard = shard_of(fp);
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return contains_locked(shard, fp, exact_ ? &key : nullptr);
}

bool VisitedSet::contains(std::uint64_t fp) const {
  MEMU_CHECK_MSG(!exact_, "fingerprint lookup in an exact-mode VisitedSet");
  const std::size_t shard = shard_of(fp);
  std::lock_guard<std::mutex> lock(shards_[shard].mu);
  return contains_locked(shard, fp, nullptr);
}

std::size_t VisitedSet::size() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.entries + (s.zero_present.load(std::memory_order_relaxed) ? 1 : 0);
  }
  return n;
}

std::size_t VisitedSet::memory_bytes() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint64_t* t = tables_[i].load(std::memory_order_relaxed);
    const std::size_t cap = t != nullptr ? t[0] : 0;
    n += cap * kFpSlot;
    if (s.exact != nullptr) {
      n += cap * kRefSlot;
      // Budgeted slabs are reserved in full up front (that IS the
      // footprint); unbudgeted slabs grew to what they hold.
      n += arena_.has_value() ? s.exact->slab_capacity
                              : s.exact->heap_slab.size();
    }
  }
  return n;
}

}  // namespace memu::engine
