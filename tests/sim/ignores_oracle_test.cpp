// Oracle test of Process::ignores(). deliver() and probe_deliver() skip
// the handler when the recipient claims a delivery is a no-op, and the
// ABD and CAS clients keep those claims in sync with their handlers by
// hand. Here, at every step of seeded ABD and CAS walks (with reordering,
// duplicated messages and crashes, which produce stale and repeated quorum
// responses), every allowed delivery whose recipient ignores it is run
// through the real handler anyway: on a slab copy of the recipient, with
// the Context recording into an Effects buffer. The handler must send
// nothing, log nothing, take no op id, and leave encode_state() unchanged.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/registry.h"
#include "common/arena.h"
#include "common/rng.h"
#include "registers/value.h"
#include "sim/world.h"

namespace memu {
namespace {

// Runs `dst`'s handler for `chan`[index] on a slab copy; returns how many
// ignored deliveries were checked (0 or 1).
std::size_t check_if_ignored(const World& w, ChannelId chan,
                             std::size_t index) {
  const Process& p = w.process(chan.dst);
  const MessagePayload& msg = w.peek(chan, index);
  if (w.is_crashed(chan.dst) || !p.ignores(chan.src, msg)) return 0;
  Process* copy = p.clone_into(local_pool().alloc(p.clone_footprint()));
  const SlabRef<Process> clone = SlabRef<Process>::adopt(copy);
  Effects fx;
  Context ctx(w, chan.dst, fx, w.step_count() + 1);
  clone->on_message(ctx, chan.src, msg);
  SCOPED_TRACE(::testing::Message() << p.name() << " ignores "
                                    << msg.type_name() << " on " << chan);
  EXPECT_TRUE(fx.sends.empty());
  EXPECT_TRUE(fx.events.empty());
  EXPECT_EQ(fx.op_ids, 0u);
  EXPECT_EQ(clone->encode_state(), p.encode_state());
  return 1;
}

std::size_t walk(const std::string& name, std::uint64_t seed) {
  SCOPED_TRACE(name + " seed " + std::to_string(seed));
  algo::Spec spec;
  spec.name = name;
  spec.n = 5;
  spec.f = 1;
  spec.writers = 2;
  spec.value_size = 12;
  algo::Deployment d = algo::build(spec);
  World& w = d.world;
  std::vector<NodeId> clients = d.writers;
  clients.insert(clients.end(), d.readers.begin(), d.readers.end());
  std::vector<std::uint64_t> last_op(clients.size(), 0);
  std::uint64_t seq = 0;
  Rng rng(seed);
  std::size_t checked = 0;
  for (int step = 0; step < 150; ++step) {
    for (const ChannelId chan : w.deliverable_channels())
      for (const std::size_t index : w.deliverable_indices(chan))
        checked += check_if_ignored(w, chan, index);
    // Start an operation at every idle client, so quorum phases keep
    // producing responses that arrive late.
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (last_op[i] != 0 && !w.oplog().responded(last_op[i])) continue;
      const bool write = i < d.writers.size();
      Invocation inv{write ? OpType::kWrite : OpType::kRead, {}};
      if (write) inv.value = unique_value(clients[i].value, ++seq, 12);
      w.invoke(clients[i], std::move(inv));
      last_op[i] = w.oplog().back().op_id;
    }
    const std::uint64_t roll = rng.next_below(12);
    if (roll == 0) {
      const NodeId s = d.servers[rng.next_below(d.servers.size())];
      if (w.is_crashed(s)) {
        w.recover(s);
      } else if (w.crashed_count() < spec.f) {
        w.crash(s);
      }
    } else if (roll == 1 && w.in_flight() != 0) {
      const auto contents = w.channel_contents();
      const auto& [chan, depth] = contents[rng.next_below(contents.size())];
      w.duplicate_message(chan, rng.next_below(depth));
    } else {
      const std::vector<ChannelId> chans = w.deliverable_channels();
      if (chans.empty()) continue;
      const ChannelId chan = chans[rng.next_below(chans.size())];
      const std::vector<std::size_t> indices = w.deliverable_indices(chan);
      w.deliver(chan, indices[rng.next_below(indices.size())]);
    }
  }
  return checked;
}

TEST(IgnoresOracle, IgnoredDeliveriesAreNoOps) {
  for (const char* name : {"abd", "cas"}) {
    std::size_t checked = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) checked += walk(name, seed);
    EXPECT_GT(checked, 0u) << name;
  }
}

}  // namespace
}  // namespace memu
