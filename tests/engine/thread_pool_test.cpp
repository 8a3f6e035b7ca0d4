#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace memu::engine {
namespace {

// A node of one of several binary trees, numbered heap-style (the children
// of `id` are 2id+1 and 2id+2). Tree 0 is a lone leaf; tree t > 0 runs
// to depth 6 + 2t (at most 15) with pseudorandom leaves, so the trees —
// and the work seeded on each worker — are deliberately uneven.
struct Task {
  std::uint32_t tree = 0;
  std::uint32_t id = 0;
  std::uint32_t depth = 0;
};

std::uint32_t depth_limit(std::uint32_t tree) {
  return tree == 0 ? 0 : std::min<std::uint32_t>(6 + 2 * tree, 15);
}

bool has_children(const Task& t) {
  return t.depth < depth_limit(t.tree) &&
         mix64((std::uint64_t{t.tree} << 32) | t.id) % 5 != 0;
}

std::size_t tree_size(const Task& t) {
  if (!has_children(t)) return 1;
  return 1 + tree_size({t.tree, 2 * t.id + 1, t.depth + 1}) +
         tree_size({t.tree, 2 * t.id + 2, t.depth + 1});
}

TEST(ThreadPool, UnevenTreesVisitEveryTaskExactlyOnce) {
  for (const std::size_t workers : {2, 4, 8}) {
    // Seeds go round-robin, so worker 0 starts with the lone leaf and runs
    // dry at once while the others still hold whole trees: it can only
    // finish by stealing, and no worker may quit while work is in flight.
    std::vector<std::vector<std::atomic<int>>> hits;
    std::size_t expected = 0;
    WorkStealingPool<Task> pool(workers);
    for (std::uint32_t tree = 0; tree < workers; ++tree) {
      hits.emplace_back(std::size_t{2} << depth_limit(tree));
      expected += tree_size({tree, 0, 0});
      pool.seed(Task{tree, 0, 0});
    }
    std::atomic<std::size_t> visited{0};
    pool.run([&](std::size_t worker, Task&& t) {
      hits[t.tree][t.id].fetch_add(1, std::memory_order_relaxed);
      visited.fetch_add(1, std::memory_order_relaxed);
      if (!has_children(t)) return;
      std::vector<Task> batch{{t.tree, 2 * t.id + 1, t.depth + 1},
                              {t.tree, 2 * t.id + 2, t.depth + 1}};
      pool.submit(worker, batch);
    });
    EXPECT_EQ(visited.load(), expected) << workers << " workers";
    for (std::uint32_t tree = 0; tree < workers; ++tree) {
      // A node is reached iff its parent had children; either way it must
      // be visited at most once, and the totals above show none is lost.
      for (std::size_t id = 0; id < hits[tree].size(); ++id)
        ASSERT_LE(hits[tree][id].load(), 1)
            << workers << " workers, tree " << tree << ", node " << id;
    }
  }
}

}  // namespace
}  // namespace memu::engine
