// Schedulers: ExecutionDrivers that choose a deliverable message per step.
//
// The paper's liveness property quantifies over *fair* executions. All
// built-in policies are fair:
//   * kRoundRobin — cycles deterministically over channels; every pending
//     message is delivered within one full rotation.
//   * kRandom — picks uniformly among deliverable channels with a private,
//     seeded RNG; fair with probability 1 and, for our bounded runs, checked
//     by run_until step limits.
//   * kRandomReorder — additionally picks a uniform position WITHIN the
//     channel (the paper's channels are not FIFO); still fair.
// Adversarial schedules (crash, freeze, deliver in a chosen order) do not
// need a Scheduler at all: the adversary harness calls World::deliver
// directly, or replays a script through engine::ReplayDriver.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "engine/driver.h"
#include "sim/world.h"

namespace memu {

class Scheduler : public engine::ExecutionDriver {
 public:
  enum class Policy { kRoundRobin, kRandom, kRandomReorder };

  explicit Scheduler(Policy policy = Policy::kRoundRobin,
                     std::uint64_t seed = 1)
      : policy_(policy), rng_(seed) {}

  // Delivers one message if any is deliverable. Returns false when the
  // system is quiescent (or fully blocked by freezes).
  bool step(World& world) override;

 private:
  // Picks one of `chans` (non-empty, from deliverable_channels()).
  ChannelId choose(const std::vector<ChannelId>& chans);

  Policy policy_;
  Rng rng_;
  ChannelId cursor_{};  // round-robin position
};

}  // namespace memu
