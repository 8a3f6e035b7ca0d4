#include "workload/park.h"

#include "common/check.h"
#include "registers/value.h"
#include "engine/scheduler.h"

namespace memu::workload {

namespace {

constexpr std::uint64_t kRunCap = 1'000'000;

// Delivers every currently deliverable message on channels leaving `src`.
void flush_from(World& world, NodeId src) {
  for (;;) {
    bool delivered = false;
    for (const ChannelId chan : world.deliverable_channels()) {
      if (chan.src == src) {
        world.deliver(chan);
        delivered = true;
        break;  // re-enumerate: delivery may enqueue more
      }
    }
    if (!delivered) return;
  }
}

// Parks nu writes: each writer is driven to its value-dependent phase (the
// coded elements / value are on the wire), the payload messages are
// delivered to every server, and the writer is then frozen so the write
// never completes — exactly the paper's "active write" whose versions the
// servers cannot garbage-collect.
template <class WriterType, class System, class PhasePred>
StorageReport park_impl(System& sys, std::size_t nu, std::size_t value_size,
                        PhasePred&& in_payload_phase) {
  MEMU_CHECK_MSG(sys.writers.size() >= nu,
                 "need at least nu writer clients to park nu writes");
  StorageMeter meter;
  Scheduler sched;
  meter.observe(sys.world);

  for (std::size_t w = 0; w < nu; ++w) {
    const Value v = unique_value(static_cast<std::uint32_t>(w + 1), 1,
                                 value_size);
    sys.world.invoke(sys.writers[w], Invocation{OpType::kWrite, v});
    const bool ok = sched.run_until(
        sys.world,
        [&](const World& world) {
          const auto& writer =
              dynamic_cast<const WriterType&>(world.process(sys.writers[w]));
          return in_payload_phase(writer);
        },
        kRunCap);
    MEMU_CHECK_MSG(ok, "writer " << w << " never reached its payload phase");
    flush_from(sys.world, sys.writers[w]);  // payload lands at every server
    sys.world.freeze(sys.writers[w]);       // ...and the write stays active
    sched.drain(sys.world, kRunCap);
    meter.observe(sys.world);
  }
  return meter.report();
}

}  // namespace

StorageReport park_active_writes(cas::System& sys, std::size_t nu,
                                 std::size_t value_size) {
  return park_impl<cas::Writer>(sys, nu, value_size, [](const cas::Writer& w) {
    return w.phase() == cas::Writer::Phase::kPreWrite;
  });
}

StorageReport park_active_writes(abd::System& sys, std::size_t nu,
                                 std::size_t value_size) {
  return park_impl<abd::Writer>(sys, nu, value_size, [](const abd::Writer& w) {
    return w.phase() == abd::Writer::Phase::kStore;
  });
}

}  // namespace memu::workload
