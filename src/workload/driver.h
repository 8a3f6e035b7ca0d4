// Workload driver: closed-loop clients over a World.
//
// Keeps every writer and reader busy (one outstanding operation per client,
// per the model's well-formedness), up to per-client operation quotas, while
// stepping the scheduler and observing storage. The number of *writers* is
// the workload's concurrency knob: nu concurrently active write operations
// need nu writer clients.
#pragma once

#include <cstdint>
#include <vector>

#include "consistency/history.h"
#include "engine/scheduler.h"
#include "sim/world.h"
#include "storage/meter.h"

namespace memu::workload {

struct Options {
  std::size_t writes_per_writer = 4;
  std::size_t reads_per_reader = 4;
  std::size_t value_size = 64;
  std::uint64_t seed = 1;
  Scheduler::Policy policy = Scheduler::Policy::kRandom;
  std::uint64_t max_steps = 1'000'000;
};

struct RunResult {
  History history;
  StorageReport storage;
  std::uint64_t steps = 0;
  bool completed = false;  // all quotas met within max_steps
  // Per-operation latency in delivered messages (responses only).
  std::vector<std::uint64_t> op_latency_steps;
};

// Drives `writers` and `readers` (client NodeIds in `world`) until all
// quotas are met. Writer i writes unique_value(i + 1, seq). Returns the
// history, peak storage, and latency samples.
RunResult run(World& world, const std::vector<NodeId>& writers,
              const std::vector<NodeId>& readers, const Options& opt);

}  // namespace memu::workload
