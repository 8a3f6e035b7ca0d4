// A handler records its sends, op-log events and op ids into an Effects
// buffer, and the World applies them only once the handler returns
// (World::apply_effects). deliver() and invoke() record into one scratch
// buffer per thread. These tests pin that a handler which records effects
// and then throws leaves nothing behind: not in the World it threw in, and
// not in the next deliver() or invoke() on the same thread.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/check.h"
#include "sim/message.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu {
namespace {

struct Ping final : MessagePayload {
  std::string_view type_name() const override { return "test.ping"; }
  StateBits size_bits() const override { return {0, 8}; }
};

// On every delivery and invocation: sends a Ping to node 0, takes an op id
// and logs an invoke event with it; then throws if `fails` is set.
class Recorder final : public CloneableProcess<Recorder> {
 public:
  explicit Recorder(bool fails) : fails_(fails) {}

  void on_message(Context& ctx, NodeId, const MessagePayload&) override {
    act(ctx);
  }
  void on_invoke(Context& ctx, const Invocation&) override { act(ctx); }

  StateBits state_size() const override { return {}; }
  void encode_state(BufWriter& w) const override { w.u8(fails_ ? 1 : 0); }
  std::string name() const override { return "test.recorder"; }

 private:
  void act(Context& ctx) {
    ctx.send(NodeId{0}, make_msg<Ping>());
    OpEvent e;
    e.client = ctx.self();
    e.op_id = ctx.next_op_id();
    ctx.log_op(e);
    if (fails_) throw ContractError("recorder handler fails");
  }

  bool fails_;
};

struct Rig {
  World world;
  NodeId good;
  NodeId bad;
  Rig() {
    good = world.add_process(std::make_unique<Recorder>(false));
    bad = world.add_process(std::make_unique<Recorder>(true));
  }
};

// What `good`'s one step must leave, had nothing run before it: its one
// send, its one event stamped with the current step, and op id 1.
void expect_only_good_step(Rig& rig) {
  World& w = rig.world;
  EXPECT_EQ(w.in_flight(), 1u);
  EXPECT_EQ(w.channel_depth(ChannelId{rig.good, NodeId{0}}), 1u);
  ASSERT_EQ(w.oplog().size(), 1u);
  EXPECT_EQ(w.oplog()[0].client, rig.good);
  EXPECT_EQ(w.oplog()[0].op_id, 1u);
  EXPECT_EQ(w.oplog()[0].step, w.step_count());
  EXPECT_EQ(w.next_op_id(), 2u);
  EXPECT_EQ(w.state_hash(), w.recompute_state_hash());
}

TEST(HandlerEffects, ThrowingDeliverLeavesNothingBehind) {
  Rig rig;
  World& w = rig.world;
  w.enqueue(ChannelId{rig.good, rig.bad}, make_msg<Ping>());
  EXPECT_THROW(w.deliver(ChannelId{rig.good, rig.bad}), ContractError);
  // The message was taken, but none of the handler's effects applied.
  EXPECT_EQ(w.in_flight(), 0u);
  EXPECT_EQ(w.oplog().size(), 0u);

  w.enqueue(ChannelId{rig.bad, rig.good}, make_msg<Ping>());
  w.deliver(ChannelId{rig.bad, rig.good});
  expect_only_good_step(rig);
}

TEST(HandlerEffects, ThrowingInvokeLeavesNothingBehind) {
  Rig rig;
  World& w = rig.world;
  EXPECT_THROW(w.invoke(rig.bad, Invocation{}), ContractError);
  EXPECT_EQ(w.in_flight(), 0u);
  EXPECT_EQ(w.oplog().size(), 0u);

  w.invoke(rig.good, Invocation{});
  expect_only_good_step(rig);
}

// The scratch buffer is per thread, not per World: a throw in one World
// must not leak into the next step of another.
TEST(HandlerEffects, ThrowInOneWorldDoesNotReachAnother) {
  Rig failing;
  EXPECT_THROW(failing.world.invoke(failing.bad, Invocation{}),
               ContractError);

  Rig rig;
  rig.world.enqueue(ChannelId{rig.bad, rig.good}, make_msg<Ping>());
  rig.world.deliver(ChannelId{rig.bad, rig.good});
  expect_only_good_step(rig);
}

}  // namespace
}  // namespace memu
