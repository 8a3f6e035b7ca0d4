// The regular-vs-atomic distinction, engineered: ABD with one-phase reads
// (no write-back) implements a REGULAR register — the safety level of
// Theorems B.1/4.1/5.1 — but admits new-old inversions that the atomic
// two-phase reader excludes.
#include <gtest/gtest.h>

#include "algo/abd/system.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"

namespace memu::abd {
namespace {

// Drives the canonical inversion schedule:
//   write(v1) completes; write(v2) reaches exactly one server s0;
//   read1 queries a quorum containing s0  -> sees v2;
//   read2 queries a quorum avoiding s0    -> sees v1 (inversion).
// With write-back, read1 repairs the quorum and read2 must see v2.
struct InversionRun {
  Value r1, r2;
  bool completed = false;
};

InversionRun run_inversion(bool write_back) {
  Options opt;  // N=5, f=2, quorum=3
  opt.n_readers = 2;
  opt.read_write_back = write_back;
  System sys = make_system(opt);
  Scheduler sched;
  World& w = sys.world;

  const Value v1 = unique_value(1, 1, opt.value_size);
  const Value v2 = unique_value(1, 2, opt.value_size);

  w.invoke(sys.writers[0], {OpType::kWrite, v1});
  if (!sched.run_until_responses(w, 1, 100000)) return {};
  sched.drain(w, 100000);

  // write(v2): run the query phase fully, then deliver the store to
  // exactly server 0 and freeze the writer.
  w.invoke(sys.writers[0], {OpType::kWrite, v2});
  const auto& writer = dynamic_cast<const Writer&>(w.process(sys.writers[0]));
  if (!sched.run_until(
          w, [&](const World&) { return writer.phase() == Writer::Phase::kStore; },
          100000))
    return {};
  w.deliver({sys.writers[0], sys.servers[0]});
  w.freeze(sys.writers[0]);

  InversionRun out;
  // read1: deliver its queries everywhere, then responses from servers
  // {0, 1, 2} — a quorum containing the v2-holder.
  w.invoke(sys.readers[0], {OpType::kRead, {}});
  for (const NodeId s : sys.servers) w.deliver({sys.readers[0], s});
  for (std::size_t i = 0; i < 3; ++i)
    w.deliver({sys.servers[i], sys.readers[0]});
  if (write_back) {
    // Let the write-back finish (reader needs a quorum of acks).
    if (!sched.run_until_responses(w, 1, 100000)) return {};
  }
  if (w.oplog().responses_since(0) < 2) return {};  // 1 write + read1
  out.r1 = w.oplog().events().back().value;

  // read2 (after read1 responded): quorum {2, 3, 4}, avoiding server 0.
  w.invoke(sys.readers[1], {OpType::kRead, {}});
  for (const NodeId s : sys.servers) w.deliver({sys.readers[1], s});
  for (std::size_t i = 2; i < 5; ++i)
    w.deliver({sys.servers[i], sys.readers[1]});
  if (write_back) {
    if (!sched.run_until_responses(w, 1, 100000)) return {};
  }
  out.r2 = w.oplog().events().back().value;
  out.completed = true;
  return out;
}

TEST(AbdRegularReader, OnePhaseReadsAdmitNewOldInversion) {
  const auto run = run_inversion(/*write_back=*/false);
  ASSERT_TRUE(run.completed);
  const Value v1 = unique_value(1, 1, 64);
  const Value v2 = unique_value(1, 2, 64);
  EXPECT_EQ(run.r1, v2);  // saw the in-flight write
  EXPECT_EQ(run.r2, v1);  // ...then the older value: inversion
}

TEST(AbdRegularReader, WriteBackPreventsTheInversion) {
  const auto run = run_inversion(/*write_back=*/true);
  ASSERT_TRUE(run.completed);
  const Value v2 = unique_value(1, 2, 64);
  EXPECT_EQ(run.r1, v2);
  EXPECT_EQ(run.r2, v2);  // read1's write-back propagated v2
}

TEST(AbdRegularReader, InversionHistoryIsRegularButNotAtomic) {
  // Reconstruct the checker verdicts on the inversion schedule.
  Options opt;
  opt.n_readers = 2;
  opt.read_write_back = false;
  System sys = make_system(opt);
  Scheduler sched;
  World& w = sys.world;

  const Value v1 = unique_value(1, 1, opt.value_size);
  const Value v2 = unique_value(1, 2, opt.value_size);
  w.invoke(sys.writers[0], {OpType::kWrite, v1});
  ASSERT_TRUE(sched.run_until_responses(w, 1, 100000));
  sched.drain(w, 100000);

  w.invoke(sys.writers[0], {OpType::kWrite, v2});
  const auto& writer = dynamic_cast<const Writer&>(w.process(sys.writers[0]));
  ASSERT_TRUE(sched.run_until(
      w, [&](const World&) { return writer.phase() == Writer::Phase::kStore; },
      100000));
  w.deliver({sys.writers[0], sys.servers[0]});
  w.freeze(sys.writers[0]);

  w.invoke(sys.readers[0], {OpType::kRead, {}});
  for (const NodeId s : sys.servers) w.deliver({sys.readers[0], s});
  for (std::size_t i = 0; i < 3; ++i)
    w.deliver({sys.servers[i], sys.readers[0]});
  w.invoke(sys.readers[1], {OpType::kRead, {}});
  for (const NodeId s : sys.servers) w.deliver({sys.readers[1], s});
  for (std::size_t i = 2; i < 5; ++i)
    w.deliver({sys.servers[i], sys.readers[1]});

  const History h = History::from_oplog(w.oplog());
  EXPECT_TRUE(check_regular_swsr(h, enum_value(0, opt.value_size)).ok);
  EXPECT_TRUE(check_weakly_regular(h, enum_value(0, opt.value_size)).ok);
  EXPECT_FALSE(check_atomic(h, enum_value(0, opt.value_size)).ok);
}

TEST(AbdRegularReader, RegularReadsStillTerminateUnderCrashes) {
  Options opt;
  opt.read_write_back = false;
  System sys = make_system(opt);
  sys.world.crash(sys.servers[0]);
  sys.world.crash(sys.servers[1]);
  Scheduler sched;
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  ASSERT_TRUE(sched.run_until_responses(sys.world, 1, 100000));
  EXPECT_EQ(sys.world.oplog().events().back().value,
            enum_value(0, opt.value_size));
}

TEST(AbdRegularReader, OnePhaseReadCostsHalfTheDeliveries) {
  auto measure = [](bool wb) {
    Options opt;
    opt.read_write_back = wb;
    System sys = make_system(opt);
    sys.world.enable_trace();
    Scheduler sched;
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
    sched.run_until_responses(sys.world, 1, 100000);
    return sys.world.step_count();
  };
  EXPECT_LT(measure(false), measure(true));
}

}  // namespace
}  // namespace memu::abd
