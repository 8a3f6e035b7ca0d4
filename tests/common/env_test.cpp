// --mem against the machine: budgets above physical RAM or the cgroup
// memory limit are rejected up front, with both numbers in the error, and
// the limit sources are injectable so none of this depends on the host.
#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace memu {
namespace {

constexpr std::uint64_t kG = 1ull << 30;

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

std::string error_of(const MemBudget& mem, const env::MemLimits& limits) {
  try {
    env::check_mem_limit(mem, limits);
  } catch (const ContractError& e) {
    return e.what();
  }
  return "";
}

TEST(MemLimit, ReadsCgroupLimitFiles) {
  EXPECT_EQ(env::read_cgroup_limit(
                write_file("memu_env_limit", "8589934592\n").c_str()),
            8 * kG);
  // "max" (cgroup v2 for unlimited), junk and a missing file are unknown.
  EXPECT_EQ(env::read_cgroup_limit(write_file("memu_env_max", "max\n").c_str()),
            0u);
  EXPECT_EQ(env::read_cgroup_limit(write_file("memu_env_junk", "12ab").c_str()),
            0u);
  EXPECT_EQ(env::read_cgroup_limit(write_file("memu_env_empty", "").c_str()),
            0u);
  EXPECT_EQ(env::read_cgroup_limit(
                (::testing::TempDir() + "memu_env_no_such_file").c_str()),
            0u);
}

TEST(MemLimit, BudgetAbovePhysicalRamNamesBothNumbers) {
  const std::string what =
      error_of(MemBudget::parse("64G"), env::MemLimits{8 * kG, 0});
  EXPECT_NE(what.find("--mem 64G"), std::string::npos) << what;
  EXPECT_NE(what.find("the 8G of"), std::string::npos) << what;
  EXPECT_NE(what.find("physical RAM"), std::string::npos) << what;
}

TEST(MemLimit, BudgetAboveCgroupLimitNamesBothNumbers) {
  const std::string what =
      error_of(MemBudget::parse("6G"), env::MemLimits{16 * kG, 4 * kG});
  EXPECT_NE(what.find("--mem 6G"), std::string::npos) << what;
  EXPECT_NE(what.find("the 4G cgroup"), std::string::npos) << what;
  EXPECT_NE(what.find("cgroup"), std::string::npos) << what;
}

TEST(MemLimit, BudgetsThatFitOrUnknownLimitsPass) {
  EXPECT_EQ(error_of(MemBudget::parse("4G"), {8 * kG, 4 * kG}), "");
  EXPECT_EQ(error_of(MemBudget::parse("64G"), {0, 0}), "");
  EXPECT_EQ(error_of(MemBudget{}, {1, 1}), "");  // unbounded
}

TEST(MemLimit, MemBudgetOrChecksEverySource) {
  const env::MemLimits small{2 * kG, 0};
  EXPECT_EQ(env::mem_budget_or(std::string("1G"), {}, small).total, kG);
  EXPECT_THROW(env::mem_budget_or(std::string("3G"), {}, small),
               ContractError);
  EXPECT_THROW(env::mem_budget_or(std::nullopt, MemBudget{4 * kG}, small),
               ContractError);
  ASSERT_EQ(::setenv(env::kMemBudget, "3G", 1), 0);
  EXPECT_THROW(env::mem_budget_or(std::nullopt, {}, small), ContractError);
  ::unsetenv(env::kMemBudget);
  EXPECT_EQ(env::mem_budget_or(std::nullopt, {}, small).total, 0u);
}

TEST(MemLimit, MachineLimitsReportPhysicalRam) {
  const env::MemLimits l = env::machine_mem_limits();
  EXPECT_GT(l.phys_bytes, 0u);
  // The machine's own limits accept a small budget and reject an absurd one.
  EXPECT_EQ(error_of(MemBudget::parse("1M"), l), "");
  EXPECT_NE(error_of(MemBudget{l.phys_bytes + 1}, l), "");
}

}  // namespace
}  // namespace memu
