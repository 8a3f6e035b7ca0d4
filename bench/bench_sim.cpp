// Simulator microbenchmarks (google-benchmark): message-delivery
// throughput, full-operation cost for ABD and CAS, and World snapshot
// (copy-on-write fork) cost — the operation the valency prober leans on.
#include <benchmark/benchmark.h>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "adversary/valency.h"
#include "consistency/checker.h"
#include "sim/cow_stats.h"
#include "sim/explorer.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

namespace {

void BM_AbdWriteReadPair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  memu::abd::Options opt;
  opt.n_servers = n;
  opt.f = (n - 1) / 2;
  memu::abd::System sys = memu::abd::make_system(opt);
  memu::Scheduler sched;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const std::size_t base = sys.world.oplog().size();
    sys.world.invoke(sys.writers[0],
                     {memu::OpType::kWrite,
                      memu::unique_value(1, ++seq, opt.value_size)});
    sys.world.invoke(sys.readers[0], {memu::OpType::kRead, {}});
    const bool ok = sched.run_until(
        sys.world,
        [base](const memu::World& w) {
          return w.oplog().responses_since(base) >= 2;
        },
        100000);
    if (!ok) state.SkipWithError("ops did not terminate");
  }
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AbdWriteReadPair)->Arg(5)->Arg(21)->Arg(101);

void BM_CasWriteReadPair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  memu::cas::Options opt;
  opt.n_servers = n;
  opt.f = (n - 1) / 4;
  opt.k = 0;  // max
  memu::cas::System sys = memu::cas::make_system(opt);
  memu::Scheduler sched;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const std::size_t base = sys.world.oplog().size();
    sys.world.invoke(sys.writers[0],
                     {memu::OpType::kWrite,
                      memu::unique_value(1, ++seq, opt.value_size)});
    sys.world.invoke(sys.readers[0], {memu::OpType::kRead, {}});
    const bool ok = sched.run_until(
        sys.world,
        [base](const memu::World& w) {
          return w.oplog().responses_since(base) >= 2;
        },
        100000);
    if (!ok) state.SkipWithError("ops did not terminate");
  }
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CasWriteReadPair)->Arg(5)->Arg(21);

// The snapshot itself: post-COW this is O(#processes) pointer bumps — the
// counters record how many bytes the copies actually materialize (a pure
// fork that is never mutated detaches nothing).
void BM_WorldSnapshot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  memu::abd::Options opt;
  opt.n_servers = n;
  opt.f = (n - 1) / 2;
  opt.value_size = 256;
  memu::abd::System sys = memu::abd::make_system(opt);
  // Populate some in-flight state.
  sys.world.invoke(sys.writers[0],
                   {memu::OpType::kWrite, memu::unique_value(1, 1, 256)});
  const memu::cowstats::Snapshot before = memu::cowstats::snapshot();
  for (auto _ : state) {
    memu::World copy = sys.world;
    benchmark::DoNotOptimize(copy);
  }
  const memu::cowstats::Snapshot cow = memu::cowstats::snapshot() - before;
  const auto iters = static_cast<double>(state.iterations());
  state.counters["clone_bytes_per_copy"] =
      iters > 0 ? static_cast<double>(cow.bytes_copied) / iters : 0;
  state.counters["state_bytes"] =
      static_cast<double>(sys.world.canonical_encoding().size());
}
BENCHMARK(BM_WorldSnapshot)->Arg(5)->Arg(21)->Arg(101);

// A probe forks the World and runs the clone to quiescence: the COW
// counters separate fork cost (pointer bumps) from the detaches the
// clone's own mutations force.
void BM_ValencyProbe(benchmark::State& state) {
  memu::adversary::Sut sut =
      memu::adversary::abd_sut_factory(5, 2, 16)();
  const memu::cowstats::Snapshot before = memu::cowstats::snapshot();
  for (auto _ : state) {
    auto v = memu::adversary::probe_read(sut.world, sut.writer, sut.reader);
    benchmark::DoNotOptimize(v);
  }
  const memu::cowstats::Snapshot cow = memu::cowstats::snapshot() - before;
  const auto iters = static_cast<double>(state.iterations());
  if (iters > 0) {
    state.counters["world_copies_per_probe"] =
        static_cast<double>(cow.world_copies) / iters;
    state.counters["clone_bytes_per_probe"] =
        static_cast<double>(cow.bytes_copied) / iters;
  }
}
BENCHMARK(BM_ValencyProbe);

void BM_WorkloadThroughput(benchmark::State& state) {
  for (auto _ : state) {
    memu::abd::Options opt;
    opt.n_writers = 2;
    opt.n_readers = 2;
    memu::abd::System sys = memu::abd::make_system(opt);
    memu::workload::Options wopt;
    wopt.writes_per_writer = 8;
    wopt.reads_per_reader = 8;
    wopt.value_size = opt.value_size;
    auto res = memu::workload::run(sys.world, sys.writers, sys.readers, wopt);
    if (!res.completed) state.SkipWithError("workload stuck");
    state.counters["deliveries"] = static_cast<double>(res.steps);
  }
  state.SetItemsProcessed(32 * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadThroughput);

void BM_CheckAtomic(benchmark::State& state) {
  const auto ops = static_cast<std::size_t>(state.range(0));
  memu::abd::Options opt;
  opt.n_writers = 2;
  opt.n_readers = 2;
  memu::abd::System sys = memu::abd::make_system(opt);
  memu::workload::Options wopt;
  wopt.writes_per_writer = ops / 4;
  wopt.reads_per_reader = ops / 4;
  wopt.value_size = opt.value_size;
  const auto res =
      memu::workload::run(sys.world, sys.writers, sys.readers, wopt);
  const memu::Value v0 = memu::enum_value(0, opt.value_size);
  for (auto _ : state) {
    auto verdict = memu::check_atomic(res.history, v0);
    if (!verdict.ok) state.SkipWithError("unexpected violation");
    benchmark::DoNotOptimize(verdict);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_CheckAtomic)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

void BM_CanonicalEncoding(benchmark::State& state) {
  memu::cas::Options opt;
  memu::cas::System sys = memu::cas::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {memu::OpType::kWrite, memu::unique_value(1, 1, 60)});
  memu::Scheduler sched;
  for (int i = 0; i < 10; ++i) sched.step(sys.world);
  for (auto _ : state) {
    auto key = sys.world.canonical_encoding();
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_CanonicalEncoding);

void BM_ExploreSmallAbd(benchmark::State& state) {
  for (auto _ : state) {
    memu::abd::Options opt;
    opt.n_servers = 3;
    opt.f = 1;
    opt.single_writer = true;
    opt.value_size = 12;
    memu::abd::System sys = memu::abd::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {memu::OpType::kWrite, memu::unique_value(1, 1, 12)});
    const auto res = memu::explore(sys.world, memu::ExploreOptions{}, {}, {});
    if (!res.complete) state.SkipWithError("exploration incomplete");
    state.counters["states"] = static_cast<double>(res.states_visited);
  }
}
BENCHMARK(BM_ExploreSmallAbd);

// The same small-ABD exploration through the engine's work-queue frontier
// with N worker threads: measures the parallel engine's overhead/scaling.
void BM_ExploreParallelAbd(benchmark::State& state) {
  memu::abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  for (auto _ : state) {
    memu::abd::System sys = memu::abd::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {memu::OpType::kWrite, memu::unique_value(1, 1, 12)});
    memu::ExploreOptions eopt;
    eopt.threads = static_cast<std::size_t>(state.range(0));
    const auto res = memu::explore(sys.world, eopt, {}, {});
    if (!res.complete) state.SkipWithError("exploration incomplete");
    state.counters["states"] = static_cast<double>(res.states_visited);
  }
}
BENCHMARK(BM_ExploreParallelAbd)->Arg(1)->Arg(2)->Arg(8);

// Fingerprint (8 B/state) vs exact (full canonical encoding) dedupe cost.
void BM_ExploreDedupeMode(benchmark::State& state) {
  memu::abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  for (auto _ : state) {
    memu::abd::System sys = memu::abd::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {memu::OpType::kWrite, memu::unique_value(1, 1, 12)});
    memu::ExploreOptions eopt;
    eopt.exact_dedupe = state.range(0) != 0;
    const auto res = memu::explore(sys.world, eopt, {}, {});
    if (!res.complete) state.SkipWithError("exploration incomplete");
    state.counters["visited_bytes"] = static_cast<double>(res.dedupe_bytes);
  }
}
BENCHMARK(BM_ExploreDedupeMode)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
