// Differential test of World::probe_deliver / apply_probe, the explorer's
// probe-before-fork path, against World::deliver. Seeded walks over every
// algorithm family drive a World through deliveries (FIFO and reordered),
// crashes, freezes, value and bulk blocks, partitions, and drop /
// duplicate / delay faults. At every step, EVERY message on every channel
// is delivered both ways from the same state:
//   - the probed hash must equal the delivered World's state_hash() and its
//     from-scratch recompute_state_hash();
//   - the probed-and-applied World must equal the delivered one: canonical
//     encoding, step count, op-log events (step stamps included), next op
//     id and delivery trace;
//   - a delivery deliver() rejects must be rejected by the probe too.
// Coverage counters make a walk that stops reaching a case (a crashed
// recipient, an ignored delivery, several sends to one destination, new
// op-log events) fail instead of passing vacuously.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/registry.h"
#include "common/rng.h"
#include "registers/value.h"
#include "sim/world.h"

namespace memu {
namespace {

struct Coverage {
  std::size_t probes = 0;
  std::size_t rejected = 0;      // illegal deliveries, rejected both ways
  std::size_t crashed_dst = 0;   // dropped at a crashed recipient
  std::size_t ignored = 0;       // Process::ignores() skipped the handler
  std::size_t handler_runs = 0;
  std::size_t events = 0;        // op-log events a probed handler logged
  std::size_t repeat_sends = 0;  // handlers sending twice to one node
};

void expect_same_oplog(const OpLog& a, const OpLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const OpEvent& x = a[i];
    const OpEvent& y = b[i];
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.client, y.client) << i;
    EXPECT_EQ(x.op_id, y.op_id) << i;
    EXPECT_EQ(x.type, y.type) << i;
    EXPECT_EQ(x.value, y.value) << i;
    EXPECT_EQ(x.step, y.step) << i;
  }
}

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    EXPECT_EQ(x.step, y.step) << i;
    EXPECT_EQ(x.chan, y.chan) << i;
    EXPECT_EQ(x.type_name, y.type_name) << i;
    EXPECT_EQ(x.size.total(), y.size.total()) << i;
    EXPECT_EQ(x.dropped, y.dropped) << i;
  }
}

bool repeats_a_destination(const Effects& fx) {
  for (std::size_t i = 0; i < fx.sends.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (fx.sends[i].first == fx.sends[j].first) return true;
  return false;
}

// Delivers every message of `w` both ways and compares the results.
void check_every_delivery(const World& w, Coverage& cov) {
  w.state_hash();  // probes need a settled hash
  for (const auto& [chan, depth] : w.channel_contents()) {
    for (std::size_t index = 0; index < depth; ++index) {
      SCOPED_TRACE(::testing::Message() << chan << "[" << index << "]");
      World delivered = w;
      World::Probe probe;
      try {
        delivered.deliver(chan, index);
      } catch (const ContractError&) {
        EXPECT_THROW(w.probe_deliver(chan, index, probe), ContractError);
        ++cov.rejected;
        continue;
      }
      w.probe_deliver(chan, index, probe);
      ++cov.probes;
      if (!probe.proc) {
        ++(w.is_crashed(chan.dst) ? cov.crashed_dst : cov.ignored);
      } else {
        ++cov.handler_runs;
        cov.events += probe.effects.events.size();
        if (repeats_a_destination(probe.effects)) ++cov.repeat_sends;
      }
      ASSERT_EQ(probe.hash, delivered.state_hash());
      ASSERT_EQ(probe.hash, delivered.recompute_state_hash());

      World applied = w;
      applied.apply_probe(chan, index, probe);
      EXPECT_FALSE(probe.proc);  // consumed
      ASSERT_EQ(applied.state_hash(), probe.hash);
      EXPECT_EQ(applied.canonical_encoding(), delivered.canonical_encoding());
      EXPECT_EQ(applied.step_count(), delivered.step_count());
      expect_same_oplog(applied.oplog(), delivered.oplog());
      expect_same_trace(applied.trace(), delivered.trace());
      EXPECT_EQ(applied.next_op_id(), delivered.next_op_id());
    }
  }
}

// One random fault on `w`. Toggles flip a node in or out of a set, so
// every block is eventually lifted again.
void random_fault(World& w, Rng& rng, const std::vector<NodeId>& servers) {
  const NodeId node{static_cast<std::uint32_t>(
      rng.next_below(w.process_count()))};
  const NodeId server = servers[rng.next_below(servers.size())];
  switch (rng.next_below(7)) {
    case 0:  // servers only, one at a time: clients stay invocable and
             // quorums stay reachable
      if (w.is_crashed(server)) {
        w.recover(server);
      } else if (w.crashed_count() == 0) {
        w.crash(server);
      }
      return;
    case 1:
      w.is_frozen(node) ? w.unfreeze(node) : w.freeze(node);
      return;
    case 2:
      w.is_value_blocked(node) ? w.value_unblock(node) : w.value_block(node);
      return;
    case 3:
      w.is_bulk_blocked(node) ? w.bulk_unblock(node) : w.bulk_block(node);
      return;
    case 4:
      if (w.partition_size() >= 2) {
        w.heal_partition();
      } else {
        w.partition_add(node);
      }
      return;
    default: {
      const auto contents = w.channel_contents();
      if (contents.empty()) return;
      const auto& [chan, depth] = contents[rng.next_below(contents.size())];
      const std::size_t index = rng.next_below(depth);
      switch (rng.next_below(3)) {
        case 0:
          w.drop_message(chan, index);
          return;
        case 1:
          w.duplicate_message(chan, index);
          return;
        default:
          w.delay_message(chan, index);
          return;
      }
    }
  }
}

// Delivers one allowed message: the first allowed one on a random channel
// (FIFO), or any allowed one (reorder). Returns false when none is.
bool random_delivery(World& w, Rng& rng, bool reorder) {
  const std::vector<ChannelId> chans = w.deliverable_channels();
  if (chans.empty()) return false;
  const ChannelId chan = chans[rng.next_below(chans.size())];
  if (!reorder) {
    w.deliver_next_allowed(chan);
    return true;
  }
  const std::vector<std::size_t> indices = w.deliverable_indices(chan);
  w.deliver(chan, indices[rng.next_below(indices.size())]);
  return true;
}

// Invokes the next operation at every idle client.
void invoke_idle(World& w, const algo::Deployment& d,
                 std::vector<std::uint64_t>& last_op, std::uint64_t& seq,
                 std::size_t value_size) {
  const auto invoke = [&](NodeId client, std::size_t slot, bool write) {
    if (last_op[slot] != 0 && !w.oplog().responded(last_op[slot])) return;
    Invocation inv{write ? OpType::kWrite : OpType::kRead, {}};
    if (write) inv.value = unique_value(client.value, ++seq, value_size);
    w.invoke(client, std::move(inv));
    last_op[slot] = w.oplog().back().op_id;
  };
  for (std::size_t i = 0; i < d.writers.size(); ++i)
    invoke(d.writers[i], i, true);
  for (std::size_t i = 0; i < d.readers.size(); ++i)
    invoke(d.readers[i], d.writers.size() + i, false);
}

void walk_algorithm(const std::string& name, bool reorder,
                    std::uint64_t seed, Coverage& cov) {
  SCOPED_TRACE(name + (reorder ? " reorder" : " fifo") + " seed " +
               std::to_string(seed));
  algo::Spec spec;
  spec.name = name;
  spec.n = 5;
  spec.f = 1;
  spec.writers = algo::lookup(name).multi_writer ? 2 : 1;
  spec.value_size = 12;
  algo::Deployment d = algo::build(spec);
  World& w = d.world;
  w.enable_trace();
  Rng rng(seed);
  std::vector<std::uint64_t> last_op(d.writers.size() + d.readers.size(), 0);
  std::uint64_t seq = 0;
  for (int step = 0; step < 100; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    check_every_delivery(w, cov);
    if (::testing::Test::HasFatalFailure()) return;
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 1) {
      random_fault(w, rng, d.servers);
    } else if (roll < 2) {
      invoke_idle(w, d, last_op, seq, spec.value_size);
    } else if (!random_delivery(w, rng, reorder)) {
      invoke_idle(w, d, last_op, seq, spec.value_size);
    }
  }
}

TEST(ProbeDeliver, MatchesDeliverOnEveryFamily) {
  std::size_t ignored = 0;  // only ABD and CAS clients override ignores()
  for (const char* name : {"abd", "cas", "ldr", "strip", "gossip"}) {
    Coverage cov;
    for (const bool reorder : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        walk_algorithm(name, reorder, seed, cov);
        if (HasFatalFailure()) return;
      }
    }
    SCOPED_TRACE(name);
    EXPECT_GT(cov.handler_runs, 0u);
    EXPECT_GT(cov.events, 0u);
    EXPECT_GT(cov.rejected, 0u);
    EXPECT_GT(cov.crashed_dst, 0u);
    ignored += cov.ignored;
  }
  EXPECT_GT(ignored, 0u);
}

// --- several sends to one destination, and the self channel ---------------

struct Token final : MessagePayload {
  std::uint64_t id;
  explicit Token(std::uint64_t i) : id(i) {}
  std::string_view type_name() const override { return "test.token"; }
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

// On each token below a bound: two distinct tokens to its ring successor
// (their order is part of the state), one to itself on every other token,
// and an op-log event under a fresh op id. Tokens only grow, so every walk
// quiesces.
struct Relay final : CloneableProcess<Relay> {
  std::uint32_t ring = 0;
  std::uint64_t seen = 0;
  explicit Relay(std::uint32_t n) : ring(n) {}
  void on_message(Context& ctx, NodeId, const MessagePayload& m) override {
    const std::uint64_t id = dynamic_cast<const Token&>(m).id;
    seen = seen * 31 + id;
    if (id >= 7) return;
    const NodeId next{(ctx.self().value + 1) % ring};
    ctx.send(next, make_msg<Token>(id + 1));
    ctx.send(next, make_msg<Token>(id + 2));
    if (id % 2 == 0) ctx.send(ctx.self(), make_msg<Token>(id + 3));
    ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), ctx.next_op_id(),
                OpType::kWrite, Bytes{static_cast<std::uint8_t>(id)}, 0});
  }
  StateBits state_size() const override { return {0, 64}; }
  void encode_state(BufWriter& w) const override { w.u64(seen); }
  std::string name() const override { return "test.relay"; }
  bool is_server() const override { return true; }
};

TEST(ProbeDeliver, RepeatedSendsAndSelfChannel) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    World w;
    for (std::uint32_t i = 0; i < 3; ++i)
      w.add_process(std::make_unique<Relay>(3));
    w.enable_trace();
    w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(0));
    w.enqueue({NodeId{1}, NodeId{1}}, make_msg<Token>(1));
    w.enqueue({NodeId{2}, NodeId{0}}, make_msg<Token>(2));
    const std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2}};
    Rng rng(seed);
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                        << step);
      check_every_delivery(w, cov);
      if (HasFatalFailure()) return;
      if (rng.next_below(6) == 0) {
        random_fault(w, rng, all);
      } else if (!random_delivery(w, rng, /*reorder=*/true)) {
        break;
      }
    }
  }
  EXPECT_GT(cov.repeat_sends, 0u);
  EXPECT_GT(cov.events, 0u);
}

}  // namespace
}  // namespace memu
