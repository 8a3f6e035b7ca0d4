// The one place MEMU_* environment overrides are named and parsed.
//
// Convention: every tool/bench knob that can come from the environment is
// spelled MEMU_<NAME>, parsed here, and resolved with the FLAG-WINS rule —
// an explicit command-line flag beats the environment, which beats the
// built-in default. Before this header each bench hand-rolled its own
// getenv + strtoull (which silently read "banana" as 0); these helpers
// parse loudly instead: a set-but-malformed override throws ContractError
// naming the variable, because a smoke job that silently ignores its
// override runs the full-size workload and times out mysteriously.
//
// Current overrides:
//   MEMU_EXPLORE_MAX_STATES  caps exploration state counts (bench smokes)
//   MEMU_FUZZ_WALKS          shrinks fuzz campaigns      (bench smokes)
//   MEMU_MEM_BUDGET          default --mem for memu explore / fuzz / sweep
//                            and the bench tools
#pragma once

#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "common/arena.h"
#include "common/check.h"

namespace memu::env {

inline constexpr const char* kExploreMaxStates = "MEMU_EXPLORE_MAX_STATES";
inline constexpr const char* kFuzzWalks = "MEMU_FUZZ_WALKS";
inline constexpr const char* kMemBudget = "MEMU_MEM_BUDGET";

// The raw string, or nullopt when unset. An empty value counts as unset
// (the conventional shell way to disable an override without unsetting it).
inline std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

// A decimal count: one or more ASCII digits (no sign, no spaces, no
// suffix) that fits in 64 bits. The one digit loop behind both the MEMU_*
// overrides and the CLI's numeric flags; `what` names the variable or the
// flag in the ContractError.
inline std::uint64_t parse_count(std::string_view text, std::string_view what) {
  MEMU_CHECK_MSG(!text.empty(), what << " is empty");
  std::uint64_t v = 0;
  for (const char c : text) {
    MEMU_CHECK_MSG(c >= '0' && c <= '9',
                   what << "='" << text << "' is not a decimal count");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    MEMU_CHECK_MSG(v <= (UINT64_MAX - digit) / 10,
                   what << "='" << text << "' overflows");
    v = v * 10 + digit;
  }
  return v;
}

// A positive decimal count. Unset -> nullopt; set but not a positive
// decimal -> ContractError naming the variable.
inline std::optional<std::uint64_t> u64(const char* name) {
  const auto s = raw(name);
  if (!s.has_value()) return std::nullopt;
  const std::uint64_t v = parse_count(*s, name);
  MEMU_CHECK_MSG(v > 0, name << "='" << *s << "' must be positive");
  return v;
}

// u64 with a fallback for the unset case.
inline std::uint64_t u64_or(const char* name, std::uint64_t fallback) {
  return u64(name).value_or(fallback);
}

// What a --mem budget is checked against, in bytes (0 = unknown or
// unlimited). A budget is a hard cap the tools plan around, so one the
// machine cannot back (--mem 64G on an 8 GB box) would OOM mid-run.
struct MemLimits {
  std::uint64_t phys_bytes = 0;
  std::uint64_t cgroup_bytes = 0;
};

// A cgroup v2 memory.max file holds a byte count or "max"; anything but a
// count, or no file, reads as 0.
inline std::uint64_t read_cgroup_limit(const char* path) {
  std::ifstream in(path);
  std::string text;
  in >> text;
  const char* const last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  return ec == std::errc{} && end == last ? v : 0;
}

// Physical RAM (sysconf) and this process's cgroup v2 memory.max.
inline MemLimits machine_mem_limits() {
  const long pages = sysconf(_SC_PHYS_PAGES), page = sysconf(_SC_PAGESIZE);
  MemLimits l{0, read_cgroup_limit("/sys/fs/cgroup/memory.max")};
  if (pages > 0 && page > 0) l.phys_bytes = std::uint64_t(pages) * page;
  return l;
}

// Throws ContractError when a bounded `mem` exceeds either limit, naming
// the budget and the limit (mccortex's cmd_check_mem_limit, up front).
// Limits print in the --mem grammar, so the number can be passed back.
inline void check_mem_limit(const MemBudget& mem, const MemLimits& limits) {
  if (!mem.bounded()) return;
  const std::string want = "--mem " + mem.to_string() + " is more than the ";
  MEMU_CHECK_MSG(limits.phys_bytes == 0 || mem.total <= limits.phys_bytes,
                 want << MemBudget{limits.phys_bytes}.to_string()
                      << " of physical RAM");
  MEMU_CHECK_MSG(limits.cgroup_bytes == 0 || mem.total <= limits.cgroup_bytes,
                 want << MemBudget{limits.cgroup_bytes}.to_string()
                      << " cgroup memory limit");
}

// Resolves a memory budget under the flag-wins rule:
//   --mem FLAG        wins outright,
//   MEMU_MEM_BUDGET   applies when no flag was given,
//   fallback          when neither is set.
// Both sources go through MemBudget::parse, so a malformed value from
// either fails loudly with the same grammar diagnostic, and the result
// must fit `limits` (check_mem_limit).
inline MemBudget mem_budget_or(const std::optional<std::string>& flag,
                               MemBudget fallback = MemBudget{},
                               const MemLimits& limits = machine_mem_limits()) {
  MemBudget mem = fallback;
  if (flag.has_value()) {
    mem = MemBudget::parse(*flag);
  } else if (const auto e = raw(kMemBudget); e.has_value()) {
    mem = MemBudget::parse(*e);
  }
  check_mem_limit(mem, limits);
  return mem;
}

}  // namespace memu::env
