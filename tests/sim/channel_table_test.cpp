// Differential tests for the sparse ChannelTable: seeded random walks of
// pushes and front/back/middle pops (directly on the table, and through
// World's enqueue/drop/duplicate/delay fault entry points) are mirrored in
// a reference std::map<ChannelId, std::deque<Message>>. After every
// operation the table must agree with the reference on contents, (src, dst)
// iteration order, lookups and counts, its incremental hash must equal the
// from-scratch oracle, and every copy taken earlier must still hold exactly
// what it held when it was taken.
#include "sim/channel_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/world.h"

namespace memu {
namespace {

constexpr std::uint32_t kNodes = 9;

struct Tag final : MessagePayload {
  std::uint64_t id;
  explicit Tag(std::uint64_t i) : id(i) {}
  std::string_view type_name() const override { return "test.tag"; }
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

class Sink final : public CloneableProcess<Sink> {
 public:
  void on_message(Context&, NodeId, const MessagePayload&) override {}
  StateBits state_size() const override { return {0, 0}; }
  void encode_state(BufWriter&) const override {}
  std::string name() const override { return "test.sink"; }
  bool is_server() const override { return true; }
};

using Reference = std::map<ChannelId, std::deque<Message>>;

ChannelId random_chan(Rng& rng) {
  return ChannelId{NodeId{static_cast<std::uint32_t>(rng.next_below(kNodes))},
                   NodeId{static_cast<std::uint32_t>(rng.next_below(kNodes))}};
}

// A random non-empty channel of `ref` (which must have one).
ChannelId random_nonempty(const Reference& ref, Rng& rng) {
  auto it = ref.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(ref.size())));
  return it->first;
}

// Front, back, or (when the queue has one) a middle position.
std::size_t random_pop_index(std::size_t depth, Rng& rng) {
  switch (rng.next_below(3)) {
    case 0:
      return 0;
    case 1:
      return depth - 1;
    default:
      return depth >= 3 ? 1 + rng.next_below(depth - 2) : 0;
  }
}

Message pop_ref(Reference& ref, ChannelId chan, std::size_t index) {
  std::deque<Message>& q = ref.at(chan);
  Message m = q[index];
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(index));
  if (q.empty()) ref.erase(chan);
  return m;
}

std::uint64_t reference_fold(const std::deque<Message>& q) {
  std::uint64_t h = statehash::kQueueFoldSeed;
  for (const Message& m : q) h = mix64(h ^ m.payload->fingerprint());
  return h;
}

void expect_matches(const ChannelTable& table, const Reference& ref) {
  EXPECT_EQ(table.content_hash(), table.recompute_content_hash());

  // Ascending (src, dst) iteration over exactly the reference's channels.
  auto expected = ref.begin();
  bool first = true;
  ChannelId prev{};
  table.for_each_nonempty([&](ChannelId chan, const ChannelTable::Queue& q) {
    if (!first) {
      EXPECT_LT(prev, chan);
    }
    first = false;
    prev = chan;
    ASSERT_NE(expected, ref.end()) << "extra channel " << chan;
    ASSERT_EQ(chan, expected->first);
    ASSERT_EQ(q.size(), expected->second.size()) << chan;
    for (std::size_t i = 0; i < q.size(); ++i) {
      EXPECT_EQ(q[i].payload.get(), expected->second[i].payload.get())
          << chan << "[" << i << "]";
      EXPECT_EQ(q[i].payload_fp, q[i].payload->fingerprint());
    }
    ++expected;
  });
  EXPECT_EQ(expected, ref.end());

  std::size_t total = 0;
  for (const auto& [chan, q] : ref) total += q.size();
  EXPECT_EQ(table.nonempty_count(), ref.size());
  EXPECT_EQ(table.total_messages(), total);
  for (std::uint32_t s = 0; s <= kNodes; ++s) {
    for (std::uint32_t d = 0; d <= kNodes; ++d) {
      const ChannelId chan{NodeId{s}, NodeId{d}};
      const auto it = ref.find(chan);
      const std::size_t depth = it == ref.end() ? 0 : it->second.size();
      EXPECT_EQ(table.find(chan) == nullptr, depth == 0) << chan;
      EXPECT_EQ(table.depth(chan), depth) << chan;
      EXPECT_EQ(table.queue_fold(chan),
                it == ref.end() ? statehash::kQueueFoldSeed
                                : reference_fold(it->second))
          << chan;
    }
  }

  // The hash depends on contents only, not on the operations that led to
  // them: a table rebuilt by pushes alone hashes the same.
  ChannelTable rebuilt;
  rebuilt.set_node_count(kNodes);
  for (const auto& [chan, q] : ref)
    for (const Message& m : q) rebuilt.push(chan, m);
  EXPECT_EQ(rebuilt.content_hash(), table.content_hash());
}

void expect_matches(const World& world, const Reference& ref) {
  EXPECT_EQ(world.state_hash(), world.recompute_state_hash());

  std::vector<std::pair<ChannelId, std::size_t>> expected;
  std::size_t total = 0;
  for (const auto& [chan, q] : ref) {
    expected.emplace_back(chan, q.size());
    total += q.size();
  }
  EXPECT_EQ(world.channel_contents(), expected);
  EXPECT_EQ(world.in_flight(), total);
  for (std::uint32_t s = 0; s < kNodes; ++s) {
    for (std::uint32_t d = 0; d < kNodes; ++d) {
      const ChannelId chan{NodeId{s}, NodeId{d}};
      const auto it = ref.find(chan);
      EXPECT_EQ(world.channel_depth(chan),
                it == ref.end() ? 0 : it->second.size())
          << chan;
      // Queue folds pin the order and identity of every message.
      EXPECT_EQ(world.channel_queue_fold(chan),
                it == ref.end() ? statehash::kQueueFoldSeed
                                : reference_fold(it->second))
          << chan;
    }
  }
}

// A copy and the reference contents it must keep.
template <class T>
struct Held {
  T copy;
  Reference ref;
};

class ChannelTableWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelTableWalk, MatchesReferenceMapAndCopiesStayFrozen) {
  Rng rng(GetParam());
  ChannelTable table;
  table.set_node_count(kNodes);
  Reference ref;
  std::vector<Held<ChannelTable>> held;
  std::uint64_t next_id = 0;
  for (int op = 0; op < 1500; ++op) {
    if (op % 50 == 0) {
      if (held.size() == 4) held.erase(held.begin());
      held.push_back({table, ref});
    }
    if (ref.empty() || rng.next_below(5) < 3) {
      const ChannelId chan = random_chan(rng);
      const MessagePtr payload = make_msg<Tag>(next_id++);
      table.push(chan, Message{payload, 0});
      ref[chan].push_back(Message{payload, payload->fingerprint()});
    } else {
      const ChannelId chan = random_nonempty(ref, rng);
      const std::size_t index = random_pop_index(ref.at(chan).size(), rng);
      const Message got = table.pop(chan, index);
      const Message want = pop_ref(ref, chan, index);
      EXPECT_EQ(got.payload.get(), want.payload.get());
    }
    expect_matches(table, ref);
    for (const auto& h : held) expect_matches(h.copy, h.ref);
    if (::testing::Test::HasFailure()) FAIL() << "op " << op;
  }
}

TEST_P(ChannelTableWalk, WorldFaultOpsMatchReferenceAndCopiesStayFrozen) {
  Rng rng(GetParam());
  World world;
  for (std::uint32_t i = 0; i < kNodes; ++i)
    world.add_process(std::make_unique<Sink>());
  Reference ref;
  std::vector<Held<World>> held;
  std::uint64_t next_id = 0;
  for (int op = 0; op < 1500; ++op) {
    if (op % 50 == 0) {
      if (held.size() == 4) held.erase(held.begin());
      held.push_back({world, ref});
    }
    const std::uint64_t kind = ref.empty() ? 0 : rng.next_below(5);
    if (kind <= 1) {
      const ChannelId chan = random_chan(rng);
      const MessagePtr payload = make_msg<Tag>(next_id++);
      world.enqueue(chan, payload);
      ref[chan].push_back(Message{payload, payload->fingerprint()});
    } else {
      const ChannelId chan = random_nonempty(ref, rng);
      const std::size_t depth = ref.at(chan).size();
      if (kind == 2) {
        const std::size_t index = random_pop_index(depth, rng);
        world.drop_message(chan, index);
        pop_ref(ref, chan, index);
      } else if (kind == 3) {
        const std::size_t index = rng.next_below(depth);
        world.duplicate_message(chan, index);
        const Message dup = ref.at(chan)[index];
        ref.at(chan).push_back(dup);
      } else {
        const std::size_t index = random_pop_index(depth, rng);
        world.delay_message(chan, index);
        const Message moved = pop_ref(ref, chan, index);
        ref[chan].push_back(moved);
      }
    }
    expect_matches(world, ref);
    for (const auto& h : held) expect_matches(h.copy, h.ref);
    if (::testing::Test::HasFailure()) FAIL() << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelTableWalk,
                         ::testing::Values(1u, 2u, 3u, 0x5eedu));

TEST(ChannelTable, EndpointsBeyondTheNodeCountAreRejected) {
  ChannelTable table;
  table.set_node_count(3);
  EXPECT_EQ(table.find({NodeId{3}, NodeId{0}}), nullptr);
  EXPECT_EQ(table.depth({NodeId{0}, NodeId{7}}), 0u);
  EXPECT_THROW(table.push({NodeId{0}, NodeId{3}},
                          Message{make_msg<Tag>(1), 0}),
               ContractError);
  // Growing the node count moves nothing and keeps the hash.
  table.push({NodeId{2}, NodeId{1}}, Message{make_msg<Tag>(2), 0});
  const std::uint64_t h = table.content_hash();
  table.set_node_count(kNodes);
  EXPECT_EQ(table.content_hash(), h);
  EXPECT_EQ(table.depth({NodeId{2}, NodeId{1}}), 1u);
  table.push({NodeId{8}, NodeId{0}}, Message{make_msg<Tag>(3), 0});
  EXPECT_EQ(table.nonempty_count(), 2u);
  EXPECT_EQ(table.content_hash(), table.recompute_content_hash());
}

}  // namespace
}  // namespace memu
