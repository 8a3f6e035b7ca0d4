#include "engine/scheduler.h"

#include <algorithm>

namespace memu {

ChannelId Scheduler::choose(const std::vector<ChannelId>& chans) {
  if (policy_ != Policy::kRoundRobin) {
    return chans[rng_.next_below(chans.size())];
  }
  // Round-robin: first channel strictly after the cursor, wrapping.
  // deliverable_channels() is sorted by (src, dst).
  auto it = std::upper_bound(chans.begin(), chans.end(), cursor_);
  if (it == chans.end()) it = chans.begin();
  cursor_ = *it;
  return *it;
}

bool Scheduler::step(World& world) {
  const std::vector<ChannelId> chans = world.deliverable_channels();
  if (chans.empty()) return false;
  const ChannelId chan = choose(chans);
  if (policy_ == Policy::kRandomReorder) {
    const auto indices = world.deliverable_indices(chan);
    MEMU_CHECK(!indices.empty());
    world.deliver(chan, indices[rng_.next_below(indices.size())]);
  } else {
    world.deliver_next_allowed(chan);
  }
  note_step(world);
  return true;
}

}  // namespace memu
