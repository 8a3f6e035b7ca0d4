#include "engine/visited.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace memu::engine {
namespace {

Bytes key(std::uint64_t i) {
  BufWriter w;
  w.u64(i);
  return std::move(w).take();
}

// The slots a single-shot insert of `fps` leaves live: per shard, the
// smallest kInitialCapacity doubling whose 3/4 load limit holds the
// shard's non-zero fingerprints (0 is flagged, not slotted), summed.
std::size_t live_slots(const std::vector<std::uint64_t>& fps,
                       std::size_t shards) {
  std::vector<std::size_t> entries(shards, 0);
  for (const std::uint64_t fp : fps)
    if (fp != 0) ++entries[fp & (shards - 1)];
  std::size_t slots = 0;
  for (const std::size_t e : entries) {
    if (e == 0) continue;
    std::size_t cap = VisitedSet::kInitialCapacity;
    while (e > cap - cap / 4) cap *= 2;
    slots += cap;
  }
  return slots;
}

TEST(VisitedSet, TryInsertOnceThenContains) {
  VisitedSet set({/*exact=*/false});
  EXPECT_FALSE(set.contains(key(7)));
  EXPECT_TRUE(set.try_insert(key(7)));
  EXPECT_TRUE(set.contains(key(7)));
  EXPECT_FALSE(set.try_insert(key(7)));  // second insert is a no-op
  EXPECT_EQ(set.size(), 1u);
}

TEST(VisitedSet, FingerprintOverloadMatchesByteKeys) {
  // try_insert(fp) with fingerprint64(key) must land in the same slot the
  // byte-key overload would have used — the frontier mixes neither, but the
  // equivalence is the contract that makes the direct overload correct.
  VisitedSet set({/*exact=*/false});
  EXPECT_TRUE(set.try_insert(fingerprint64(key(3))));
  EXPECT_FALSE(set.try_insert(key(3)));
  EXPECT_TRUE(set.contains(fingerprint64(key(3))));
  EXPECT_FALSE(set.contains(fingerprint64(key(4))));
  EXPECT_TRUE(set.try_insert(key(4)));
  EXPECT_FALSE(set.try_insert(fingerprint64(key(4))));
  EXPECT_EQ(set.size(), 2u);
}

TEST(VisitedSet, ExactModeBehavesIdentically) {
  VisitedSet fp({/*exact=*/false});
  VisitedSet exact({/*exact=*/true});
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(fp.try_insert(key(i % 300)), exact.try_insert(key(i % 300)));
  }
  EXPECT_EQ(fp.size(), 300u);
  EXPECT_EQ(exact.size(), 300u);
}

TEST(VisitedSet, MemoryBytesIsExactAndExceedsTheLegacyEstimate) {
  // memory_bytes() reports real allocated bytes (slot tables + slabs), not
  // a per-key estimate that misses node and bucket overhead — pin the
  // exact value so an undercount can never creep back.
  VisitedSet fp({/*exact=*/false});
  EXPECT_EQ(fp.memory_bytes(), 0u);  // tables come with the first insert
  std::vector<std::uint64_t> fps;
  for (std::uint64_t i = 0; i < 100; ++i) {
    fp.try_insert(key(i));
    fps.push_back(fingerprint64(key(i)));
  }
  // Each shard's table is the smallest doubling of kInitialCapacity that
  // holds its entries at a 75% load limit, 8 B/slot.
  EXPECT_EQ(fp.memory_bytes(), live_slots(fps, fp.shard_count()) * 8u);

  VisitedSet exact({/*exact=*/true});
  for (std::uint64_t i = 0; i < 100; ++i) exact.try_insert(key(i));
  // Exact mode adds the refs table and the encoding slab on top.
  EXPECT_GE(exact.memory_bytes(), 256u * (8u + 16u) + 100u * 8u);
}

TEST(VisitedSet, BudgetedSetFitsCapacityUpFrontAndStaysWithinBudget) {
  constexpr std::size_t kBudget = 1 << 16;  // 64 KiB
  VisitedSet set({/*exact=*/false, kBudget});
  // Capacity is fitted at construction: memory_bytes() is already final
  // and within budget before any insert.
  const std::size_t fitted = set.memory_bytes();
  EXPECT_GT(fitted, 0u);
  EXPECT_LE(fitted, kBudget);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(set.try_insert(key(i)));
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_EQ(set.memory_bytes(), fitted);  // no growth, ever
}

TEST(VisitedSet, OverfilledBudgetFailsLoudlyWithSizingHint) {
  // A budget too small for the state space must CHECK-fail at the load
  // limit — not grow, not degrade — and the message must tell the user
  // what to do in --mem terms.
  VisitedSet set({/*exact=*/false, /*budget_bytes=*/4096});
  // 4 KiB cannot give all kShards shards kMinCapacity slots each, so the
  // set is split over fewer shards instead of failing at construction.
  EXPECT_LT(set.shard_count(), VisitedSet::kShards);
  EXPECT_GE(set.shard_count(), 1u);
  EXPECT_LE(set.memory_bytes(), 4096u);
  try {
    for (std::uint64_t i = 0; i < 100'000; ++i) set.try_insert(key(i));
    FAIL() << "insert past the load limit should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--mem"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(set.shard_count()) + " shard(s)"),
              std::string::npos)
        << what;
  }
}

TEST(VisitedSet, BudgetFitsTheFullShardCountWhenItCan) {
  EXPECT_EQ(VisitedSet({/*exact=*/false}).shard_count(), VisitedSet::kShards);
  EXPECT_EQ(VisitedSet({/*exact=*/false, 1 << 20}).shard_count(),
            VisitedSet::kShards);
  EXPECT_EQ(VisitedSet({/*exact=*/true, 1 << 22}).shard_count(),
            VisitedSet::kShards);
}

TEST(VisitedSet, ImpossiblySmallBudgetFailsAtConstruction) {
  // Not even a minimum-capacity table fits: fail at construction, again
  // with the --mem sizing hint.
  try {
    VisitedSet set({/*exact=*/false, /*budget_bytes=*/256});
    FAIL() << "construction should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
}

TEST(VisitedSet, BudgetedExactModeKeepsEncodingsAndStaysWithinBudget) {
  constexpr std::size_t kBudget = 1 << 20;  // 1 MiB
  VisitedSet set({/*exact=*/true, kBudget});
  EXPECT_LE(set.memory_bytes(), kBudget);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(set.try_insert(key(i)));
    EXPECT_FALSE(set.try_insert(key(i)));
  }
  EXPECT_EQ(set.size(), 500u);
  EXPECT_LE(set.memory_bytes(), kBudget);
}

TEST(VisitedSet, ConcurrentInsertersAgreeOnFreshness) {
  // 4 threads racing over an overlapping key range: exactly one inserter
  // per distinct key may see "fresh".
  VisitedSet set({/*exact=*/false});
  constexpr std::uint64_t kKeys = 5000;
  std::atomic<std::size_t> fresh{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        if (set.try_insert(key(i)))
          fresh.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fresh.load(), kKeys);
  EXPECT_EQ(set.size(), kKeys);
}

TEST(VisitedSet, ConcurrentGrowthKeepsExactlyOneFreshPerKey) {
  // Eight threads insert the same keys — fingerprint 0 among them — each
  // starting at a different offset, so the threads overlap on every key
  // while the shards grow from kInitialCapacity through six or more
  // doublings. Lock-free hits race against inserts and table swaps; each
  // key must still be fresh for exactly one thread.
  constexpr std::size_t kKeys = 60'000;
  constexpr std::size_t kThreads = 8;
  std::vector<std::uint64_t> fps(kKeys);
  fps[0] = 0;
  for (std::size_t i = 1; i < kKeys; ++i) fps[i] = mix64(i);
  VisitedSet set({/*exact=*/false});
  std::vector<std::atomic<int>> fresh(kKeys);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t n = 0; n < kKeys; ++n) {
        const std::size_t i = (t * kKeys / kThreads + n) % kKeys;
        if (set.try_insert(fps[i]))
          fresh[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(fresh[i].load(), 1) << "key " << i;
    ASSERT_TRUE(set.contains(fps[i])) << "key " << i;
  }
  EXPECT_EQ(set.size(), kKeys);
  const std::size_t slots = live_slots(fps, set.shard_count());
  EXPECT_GE(slots, set.shard_count() * (VisitedSet::kInitialCapacity << 6));
  EXPECT_EQ(set.memory_bytes(), slots * 8u);
}

}  // namespace
}  // namespace memu::engine
