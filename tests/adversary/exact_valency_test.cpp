// Exact (exhaustive) valency: probe_read_all_values decides Definition
// 4.3's existential quantifier by exploring every extension schedule. These
// tests (a) characterize valency sets at known points, (b) exhibit a
// genuinely BIVALENT point, and (c) validate that the deterministic probe
// and the exact decision locate the same critical pairs for our algorithms
// — the soundness claim EXPERIMENTS.md makes for the fast probe.
#include <gtest/gtest.h>

#include "adversary/harness.h"

#include "algo/abd/client.h"
#include "engine/scheduler.h"

namespace memu::adversary {
namespace {

constexpr std::size_t kValueSize = 12;

TEST(ExactValency, FreshSystemIsUniquelyZeroValent) {
  Sut sut = abd_sut_factory(3, 1, kValueSize)();
  const auto set = probe_read_all_values(sut.world, sut.writer, sut.reader);
  EXPECT_EQ(set, (std::set<Value>{enum_value(0, kValueSize)}));
}

TEST(ExactValency, CompletedWriteIsUniquelyOneValent) {
  Sut sut = abd_sut_factory(3, 1, kValueSize)();
  const Value v1 = enum_value(1, kValueSize);
  const std::size_t base = sut.world.oplog().size();
  sut.world.invoke(sut.writer, {OpType::kWrite, v1});
  Scheduler sched;
  ASSERT_TRUE(sched.run_until(
      sut.world,
      [base](const World& w) { return w.oplog().responses_since(base) >= 1; },
      100000));
  sched.drain(sut.world, 100000);
  const auto set = probe_read_all_values(sut.world, sut.writer, sut.reader);
  EXPECT_EQ(set, (std::set<Value>{v1}));
}

TEST(ExactValency, PartialWriteCanBeBivalent) {
  // N = 5, f = 1: live quorum 4 of 5. Deliver the store to exactly one
  // server: a read quorum may include it (sees v1) or avoid it (sees v0) —
  // a bivalent point, which the deterministic probe cannot express but the
  // exact set captures.
  Sut sut = abd_sut_factory(5, 1, kValueSize)();
  const Value v0 = enum_value(0, kValueSize);
  const Value v1 = enum_value(1, kValueSize);
  sut.world.invoke(sut.writer, {OpType::kWrite, v1});
  // MWMR writer: run the query phase; then deliver one store.
  const auto& writer =
      dynamic_cast<const memu::abd::Writer&>(sut.world.process(sut.writer));
  Scheduler sched;
  ASSERT_TRUE(sched.run_until(
      sut.world,
      [&](const World&) { return writer.phase() == memu::abd::Writer::Phase::kStore; },
      100000));
  sut.world.deliver({sut.writer, sut.servers[0]});

  const auto set = probe_read_all_values(sut.world, sut.writer, sut.reader);
  EXPECT_EQ(set, (std::set<Value>{v0, v1}));

  // The deterministic probe returns one element of the exact set.
  const auto det = probe_read(sut.world, sut.writer, sut.reader);
  ASSERT_TRUE(det.has_value());
  EXPECT_TRUE(set.contains(*det));
}

TEST(ExactValency, ExactAndDeterministicCriticalPairsAgreeOnAbd) {
  // For quorum-reads-all-live configurations (crash the full f budget),
  // valency is schedule-independent, so the two modes find identical
  // critical pairs. This is the validation behind using the fast probe
  // everywhere else.
  const SutFactory factory = abd_sut_factory(3, 1, kValueSize);
  ProbeOptions exact;
  exact.exact = true;
  for (const auto& [i, j] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 2}, {2, 1},
                                                        {1, 3}}) {
    const Value v1 = enum_value(i, kValueSize);
    const Value v2 = enum_value(j, kValueSize);
    const auto det = find_critical_pair(factory, v1, v2);
    const auto exa = find_critical_pair(factory, v1, v2, exact);
    ASSERT_TRUE(det.found);
    ASSERT_TRUE(exa.found);
    EXPECT_TRUE(exa.probes_consistent);
    EXPECT_EQ(det.flip_step, exa.flip_step);
    EXPECT_EQ(det.signature, exa.signature);
    EXPECT_EQ(det.changed_server, exa.changed_server);
  }
}

TEST(ExactValency, ExactAndDeterministicCriticalPairsAgreeOnCas) {
  const SutFactory factory = cas_sut_factory(4, 1, 2, 14, std::nullopt);
  ProbeOptions exact;
  exact.exact = true;
  const Value v1 = enum_value(1, 14);
  const Value v2 = enum_value(2, 14);
  const auto det = find_critical_pair(factory, v1, v2);
  const auto exa = find_critical_pair(factory, v1, v2, exact);
  ASSERT_TRUE(det.found);
  ASSERT_TRUE(exa.found);
  EXPECT_EQ(det.flip_step, exa.flip_step);
  EXPECT_EQ(det.signature, exa.signature);
}

TEST(ExactValency, ExactPairInjectivityOnAbd) {
  ProbeOptions exact;
  exact.exact = true;
  const auto report =
      verify_pair_injectivity(abd_sut_factory(3, 1, kValueSize), 3, exact);
  EXPECT_TRUE(report.all_found);
  EXPECT_TRUE(report.all_consistent);  // Lemma 4.4: not-1-valent => 2-valent
  EXPECT_TRUE(report.injective);
}

TEST(ExactValency, StateBudgetIsEnforced) {
  Sut sut = abd_sut_factory(5, 2, kValueSize)();
  sut.world.invoke(sut.writer, {OpType::kWrite, enum_value(1, kValueSize)});
  EXPECT_THROW(probe_read_all_values(sut.world, sut.writer, sut.reader,
                                     ProbeOptions{}, /*max_states=*/3),
               ContractError);
}

}  // namespace
}  // namespace memu::adversary
