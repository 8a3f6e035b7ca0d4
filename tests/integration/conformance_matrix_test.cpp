// Conformance matrix: every algorithm, across system shapes, schedule
// policies, and seeds, must satisfy its advertised consistency contract
// (atomic for ABD/CAS/CASGC/CAS-hash/StripStore; regular for the one-phase
// readers of gossip and LDR) and terminate.
#include <gtest/gtest.h>

#include <string>

#include "algo/registry.h"
#include "consistency/checker.h"
#include "workload/driver.h"

namespace memu {
namespace {

struct Case {
  std::string algo;
  std::size_t n, f;
  Scheduler::Policy policy;
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) {
  std::string algo = c.algo;
  for (auto& ch : algo)
    if (ch == '-') ch = '_';  // gtest parameter names must be alphanumeric
  *os << algo << "_n" << c.n << "_f" << c.f << "_p"
      << static_cast<int>(c.policy) << "_s" << c.seed;
}

class ConformanceMatrix : public ::testing::TestWithParam<Case> {};

TEST_P(ConformanceMatrix, ContractHolds) {
  const Case& c = GetParam();
  constexpr std::size_t kValueSize = 48;
  workload::Options wopt;
  wopt.writes_per_writer = 2;
  wopt.reads_per_reader = 2;
  wopt.value_size = kValueSize;
  wopt.policy = c.policy;
  wopt.seed = c.seed;

  const algo::Algorithm& a = algo::lookup(c.algo);
  algo::Deployment d = algo::build({.name = c.algo,
                                    .n = c.n,
                                    .f = c.f,
                                    .k = 0,  // max
                                    .writers = a.checked_writers(),
                                    .readers = 2,
                                    .value_size = kValueSize,
                                    .delta = 2});
  const workload::RunResult res =
      workload::run(d.world, d.writers, d.readers, wopt);

  ASSERT_TRUE(res.completed) << "liveness lost";
  const Value v0 = enum_value(0, kValueSize);
  if (a.promise == algo::Promise::kAtomic) {
    const auto verdict = check_atomic(res.history, v0);
    EXPECT_TRUE(verdict.ok) << verdict.violation;
  } else {
    const auto verdict = check_regular_swsr(res.history, v0);
    EXPECT_TRUE(verdict.ok) << verdict.violation;
  }
  // Weak regularity is implied by both contracts; check it uniformly.
  EXPECT_TRUE(check_weakly_regular(res.history, v0).ok);
}

std::vector<Case> matrix() {
  std::vector<Case> out;
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{{5, 2},
                                                                {7, 3},
                                                                {9, 2}};
  const std::vector<Scheduler::Policy> policies{
      Scheduler::Policy::kRoundRobin, Scheduler::Policy::kRandom,
      Scheduler::Policy::kRandomReorder};
  for (const std::string algo :
       {"abd", "abd-swmr", "cas", "casgc", "cas-hash", "strip", "gossip",
        "ldr"}) {
    for (const auto& [n, f] : shapes) {
      // CAS shapes need k = N - 2f >= 1; all chosen shapes satisfy it.
      for (const auto policy : policies) {
        for (const std::uint64_t seed : {41ull, 97ull}) {
          out.push_back({algo, n, f, policy, seed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ConformanceMatrix,
                         ::testing::ValuesIn(matrix()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           std::ostringstream os;
                           PrintTo(info.param, &os);
                           return os.str();
                         });

}  // namespace
}  // namespace memu
