// memu — the memucost command line: one binary, one flag parser.
//
//   bounds   every storage bound of the paper for N and f
//   run      drive a workload on any algo/registry.h algorithm and print
//            storage, latency and the consistency verdict
//   verify   execute a lower-bound proof construction (b1, 41, 51, 65)
//   explore  exhaustively model-check a write racing a read; `abd` is the
//            single-writer ABD, --reduce is --sleep-sets plus --symmetry
//   fuzz     run / replay / shrink seed-deterministic fault-injection
//            campaigns (FUZZTRACE_<algo>_<walk>.json counterexamples)
//   sweep    stream every bound (and, with --measure, every algorithm) over
//            a --grid as CSV/JSON, or regenerate bench/fig1/ with --fig1
//
// Each subcommand declares its flags; `memu` alone lists them. An
// undeclared flag, a value flag without a value, a repeated flag or a wrong
// argument count prints the usage and exits 2. Counts are decimal digits
// only, overflow-checked (env::parse_count). --threads (default: hardware
// concurrency, capped at 8) and --mem (<bytes|512M|4G>, else
// MEMU_MEM_BUDGET) resolve in main() for every subcommand that takes them;
// stdout never depends on either. Other errors print "error: ..." and exit
// 1. docs/API.md has the full reference.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/harness.h"
#include "adversary/theorem65.h"
#include "algo/registry.h"
#include "bounds/bounds.h"
#include "common/env.h"
#include "common/table.h"
#include "consistency/checker.h"
#include "engine/thread_pool.h"
#include "fuzz/campaign.h"
#include "fuzz/minimizer.h"
#include "fuzz/trace_io.h"
#include "sim/explorer.h"
#include "sweep/fig1.h"
#include "sweep/sweep.h"
#include "workload/driver.h"

namespace {

using namespace memu;
using namespace memu::fuzz;

// A command-line mistake: reported with the usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> pos;  // arguments after the subcommand name
  std::map<std::string, std::string, std::less<>> flags;
  std::size_t threads = 1;  // --threads, for the subcommands that take it
  MemBudget mem;            // --mem or MEMU_MEM_BUDGET, likewise

  bool has(std::string_view f) const { return flags.contains(f); }
  std::optional<std::string> opt(std::string_view f) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
  std::string str(std::string_view f, const std::string& fallback) const {
    return opt(f).value_or(fallback);
  }
  std::uint64_t num(std::string_view f, std::uint64_t fallback) const {
    const auto v = opt(f);
    return v ? env::parse_count(*v, "--" + std::string(f)) : fallback;
  }
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

// ---- bounds ------------------------------------------------------------------

int cmd_bounds(const Args& a) {
  const std::size_t n = env::parse_count(a.pos[0], "N");
  const std::size_t f = env::parse_count(a.pos[1], "f");
  const std::size_t nu_max =
      a.pos.size() > 2 ? env::parse_count(a.pos[2], "nu_max") : 16;
  using namespace bounds;
  std::cout << "bounds for N=" << n << ", f=" << f
            << " (normalized by log2|V|):\n"
            << "  Theorem B.1:  " << singleton_normalized(n, f) << '\n';
  if (f >= 2)
    std::cout << "  Theorem 4.1:  " << no_gossip_normalized(n, f) << '\n';
  std::cout << "  Theorem 5.1:  " << universal_normalized(n, f) << '\n'
            << "  ABD (f+1):    " << abd_ideal_normalized(f) << "\n\n";
  Table t({"nu", "thm6.5", "erasure", "winner"}, 12);
  for (const auto& r : figure1_series(n, f, nu_max)) {
    t.row().cell(r.nu).cell(r.thm_65).cell(r.erasure).cell(
        r.erasure < r.abd ? "erasure" : "replication");
  }
  t.print();
  return 0;
}

// ---- run ---------------------------------------------------------------------

int cmd_run(const Args& a) {
  const std::string& name = a.pos[0];
  const algo::Algorithm& info = algo::lookup(name);
  algo::Spec spec;
  spec.name = name;
  spec.n = a.num("n", 5);
  spec.f = a.num("f", info.family == algo::Family::kCas ? 1 : 2);
  spec.k = a.num("k", 0);
  spec.writers = a.num("writers", info.multi_writer ? 2 : 1);
  spec.readers = a.num("readers", 2);
  const std::size_t quota = a.num("ops-per-client", 4);
  spec.value_size = a.num("value-bytes", 120);
  const std::uint64_t seed = a.num("seed", 1);
  spec.delta = a.num("delta", 1);
  algo::Deployment d = algo::build(spec);

  for (const std::string& tok : split_csv(a.str("crash", ""))) {
    const std::size_t idx = env::parse_count(tok, "--crash");
    if (idx >= d.servers.size()) {
      std::cerr << "crash index out of range\n";
      return 2;
    }
    d.world.crash(d.servers[idx]);
    std::cout << "crashed server " << idx << '\n';
  }

  workload::Options wopt;
  wopt.writes_per_writer = quota;
  wopt.reads_per_reader = quota;
  wopt.value_size = spec.value_size;
  wopt.seed = seed;
  wopt.policy = a.has("reorder") ? Scheduler::Policy::kRandomReorder
                                 : Scheduler::Policy::kRandom;
  const auto res = workload::run(d.world, d.writers, d.readers, wopt);

  const double B = 8.0 * static_cast<double>(spec.value_size);
  std::cout << name << " N=" << spec.n << " f=" << spec.f << " B=" << B
            << " bits\n"
            << "  completed:        " << (res.completed ? "yes" : "NO")
            << " (" << res.steps << " deliveries)\n"
            << "  peak total store: " << res.storage.peak_total.total()
            << " bits = " << res.storage.normalized_peak_total(B)
            << " x B value + " << res.storage.peak_total.metadata_bits
            << " metadata\n"
            << "  peak per server:  " << res.storage.peak_max_server.total()
            << " bits\n";
  if (!res.op_latency_steps.empty()) {
    std::uint64_t total = 0, worst = 0;
    for (const auto l : res.op_latency_steps) {
      total += l;
      worst = std::max(worst, l);
    }
    std::cout << "  latency (deliveries/op): mean "
              << static_cast<double>(total) /
                     static_cast<double>(res.op_latency_steps.size())
              << ", max " << worst << '\n';
  }
  const Value v0 = enum_value(0, spec.value_size);
  if (res.history.size() <= 40) {
    const auto atomic = check_atomic(res.history, v0);
    std::cout << "  atomicity:        " << (atomic.ok ? "PASS" : "FAIL")
              << (atomic.ok ? "" : " — " + atomic.violation) << '\n';
    if (a.has("witness") && atomic.ok) {
      const auto lin = find_linearization(res.history, v0);
      std::cout << "  linearization:   ";
      for (const auto id : lin.order) std::cout << " op" << id;
      std::cout << '\n';
    }
  }
  const auto weak = check_weakly_regular(res.history, v0);
  std::cout << "  weak regularity:  " << (weak.ok ? "PASS" : "FAIL") << '\n';
  return res.completed && weak.ok ? 0 : 1;
}

// ---- verify ------------------------------------------------------------------

// The deployments the proof constructions run on.
const std::map<std::string, adversary::SutFactory, std::less<>>& proof_suts() {
  static const std::map<std::string, adversary::SutFactory, std::less<>> m{
      {"abd", adversary::abd_sut_factory(5, 2, 16)},
      {"cas", adversary::cas_sut_factory(5, 1, 3, 18, {})},
      {"gossip", adversary::gossip_sut_factory(5, 2, 16)},
      {"ldr", adversary::ldr_sut_factory(5, 1, 16)},
  };
  return m;
}

// Theorem 6.5's nu-writer deployments.
using MwMaker = std::function<adversary::MwSutFactory(std::size_t nu)>;
const std::map<std::string, MwMaker, std::less<>>& staged_suts() {
  static const std::map<std::string, MwMaker, std::less<>> m{
      {"abd", [](std::size_t nu) {
         return adversary::abd_mw_factory(5, 2, nu, 18);
       }},
      {"cas", [](std::size_t nu) {
         return adversary::cas_mw_factory(5, 1, 3, nu, 18);
       }},
      {"cas-hash", [](std::size_t nu) {
         return adversary::cas_hash_mw_factory(5, 1, 3, nu, 18);
       }},
  };
  return m;
}

int cmd_verify(const Args& a) {
  const std::string& which = a.pos[0];
  const std::string& name = a.pos[1];
  const std::size_t domain = a.num("domain", 4);

  if (which == "65") {
    const std::size_t nu = a.num("nu", 2);
    const auto it = staged_suts().find(name);
    if (it == staged_suts().end())
      throw UsageError("verify 65 takes abd, cas or cas-hash");
    const auto r =
        adversary::verify_staged_injectivity(it->second(nu), domain, nu);
    std::cout << "theorem 6.5 on " << name << ": tuples=" << r.tuples
              << " staged=" << (r.all_completed ? "yes" : "NO")
              << " injective=" << (r.injective ? "yes" : "NO")
              << " (paper single-point map: "
              << (r.single_point_injective ? "injective" : "not injective")
              << ")\n";
    return r.injective ? 0 : 1;
  }

  const auto it = proof_suts().find(name);
  if (it == proof_suts().end())
    throw UsageError("verify " + which + " takes abd, cas, gossip or ldr");
  const adversary::SutFactory& factory = it->second;
  if (which == "b1") {
    const auto r = adversary::verify_singleton_injectivity(factory, domain);
    std::cout << "theorem B.1 on " << name << ": |V|=" << r.domain
              << " injective=" << (r.injective ? "yes" : "NO")
              << " probes=" << (r.probes_consistent ? "ok" : "BAD") << '\n';
    return r.injective ? 0 : 1;
  }
  if (which == "41" || which == "51") {
    adversary::ProbeOptions probe;
    probe.flush_gossip = which == "51";
    const auto r = adversary::verify_pair_injectivity(factory, domain, probe);
    std::cout << "theorem " << (which == "51" ? "5.1" : "4.1") << " on "
              << name << ": pairs=" << r.pairs
              << " injective=" << (r.injective ? "yes" : "NO")
              << " certificate=" << r.certificate_log2
              << " >= " << r.bound_log2 << '\n';
    return r.injective ? 0 : 1;
  }
  throw UsageError("unknown theorem '" + which + "'");
}

// ---- explore -----------------------------------------------------------------

int cmd_explore(const Args& a) {
  const std::string& name = a.pos[0];
  // The registry algorithm each explore target runs.
  static const std::map<std::string, std::string, std::less<>> targets{
      {"abd", "abd-swmr"}, {"cas", "cas"}};
  const auto target = targets.find(name);
  if (target == targets.end()) throw UsageError("explore takes abd or cas");
  const std::size_t n = a.num("n", 3);
  algo::Deployment d = algo::build({.name = target->second,
                                    .n = n,
                                    .f = 1,
                                    .k = 1,
                                    .writers = 1,
                                    .readers = 1,
                                    .value_size = 12});
  d.world.invoke(d.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  d.world.invoke(d.readers[0], {OpType::kRead, {}});
  const Value v0 = enum_value(0, 12);

  ExploreOptions opt;
  opt.reorder = a.has("reorder");
  opt.reduction.sleep_sets = a.has("reduce") || a.has("sleep-sets");
  opt.reduction.symmetry = a.has("reduce") || a.has("symmetry");
  opt.max_states = a.num("max-states", 2'000'000);
  opt.mem = a.mem;
  const auto res = explore(
      d.world, opt, {},
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = check_atomic(History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  std::cout << "explored " << name << " (write || read, N=" << n << ", f=1"
            << (opt.reorder ? ", non-FIFO" : ", FIFO") << "): states="
            << res.states_visited << " terminals=" << res.terminal_states
            << " complete=" << (res.complete ? "yes" : "NO") << " -> "
            << (res.ok ? "VERIFIED atomic+live" + omission_note(res)
                       : "VIOLATION: " + res.violation)
            << '\n';
  if (opt.reduction.sleep_sets || opt.reduction.symmetry) {
    std::cout << "reduction: sleep_sets="
              << (opt.reduction.sleep_sets ? "on" : "off")
              << " symmetry="
              << (res.symmetry_applied
                      ? "on"
                      : (opt.reduction.symmetry ? "ineligible" : "off"))
              << " sleep_blocked=" << res.sleep_blocked
              << " symmetry_merged=" << res.symmetry_merged
              << " transitions=" << res.transitions << '\n';
  }
  return res.ok ? 0 : 1;
}

// ---- fuzz --------------------------------------------------------------------

// An explicit --mem also caps the World slab pages (process blocks, channel
// slots, oplog chunks), so a runaway walk fails in --mem terms instead of
// OOMing.
void cap_world_memory(const MemBudget& mem) {
  if (mem.bounded()) worldmem::set_limit(mem.total);
}

int cmd_fuzz_run(const Args& a) {
  const std::vector<std::string> algos = split_csv(a.str("algo", "abd"));
  if (algos.empty()) throw UsageError("--algo names no algorithm");

  const std::string mix_name = a.str("mix", "standard");
  FaultMix mix;
  if (mix_name == "standard") {
    mix = FaultMix::standard();
  } else if (mix_name == "crashes") {
    mix = FaultMix::crashes_only();
  } else {
    std::cerr << "unknown mix '" << mix_name << "'\n";
    return 2;
  }

  const std::string out_dir = a.str("out-dir", ".");
  std::size_t violations_total = 0;

  for (const std::string& name : algos) {
    SystemSpec spec;
    spec.algo = name;
    spec.n_servers = a.num("n", 5);
    spec.f = a.num("f", 2);
    spec.k = a.num("k", 0);
    spec.n_writers =
        a.num("writers", algo::lookup(name).checked_writers());
    spec.n_readers = a.num("readers", 2);
    // 60 bytes divides evenly under every built-in code dimension.
    spec.value_size = a.num("value-bytes", 60);

    FuzzPlan plan;
    plan.seed = a.num("seed", 1);
    plan.walks = a.num("walks", 16);
    plan.max_steps = a.num("max-steps", 20'000);
    plan.writes_per_writer = a.num("writes", 3);
    plan.reads_per_reader = a.num("reads", 3);
    plan.check = a.has("check") ? check_kind_from_name(*a.opt("check"))
                                : spec.default_check();
    plan.mix = mix;
    plan.minimize = !a.has("no-minimize");
    plan.threads = a.threads;
    plan.mem = a.mem;
    cap_world_memory(plan.mem);

    const auto t0 = std::chrono::steady_clock::now();
    const CampaignSummary summary = run_campaign(spec, plan);
    const auto t1 = std::chrono::steady_clock::now();

    std::cout << summary.to_json();
    // Wall-clock and thread count stay off stdout so summaries compare
    // byte-identical across runs and --threads values.
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    std::cerr << name << ": " << summary.plan.walks << " walks ("
              << plan.threads << " threads), " << summary.steps_total
              << " deliveries, " << summary.violations << " violations in "
              << secs << "s ("
              << (secs > 0 ? static_cast<double>(summary.plan.walks) / secs
                           : 0)
              << " walks/s)\n";

    violations_total += summary.violations;
    for (const WalkResult& w : summary.walks) {
      if (w.check.ok) continue;
      std::ostringstream path;
      path << out_dir << "/FUZZTRACE_" << name << '_' << w.walk_index
           << ".json";
      save_trace(w.trace, path.str());
      std::cerr << "  wrote " << path.str() << " (" << w.trace.events.size()
                << " events)\n";
    }
  }

  if (a.has("expect-violations")) return violations_total > 0 ? 0 : 1;
  return violations_total == 0 ? 0 : 1;
}

int cmd_fuzz_replay(const Args& a) {
  const FuzzTrace trace = load_trace(a.pos[0]);
  const WalkResult r = replay_trace(trace);
  std::cout << "replay of " << a.pos[0] << ":\n"
            << "  algo:        " << trace.spec.algo << " (check "
            << check_kind_name(trace.check) << ")\n"
            << "  walk seed:   " << trace.walk_seed << "\n"
            << "  steps:       " << r.steps << "\n"
            << "  events:      " << r.injected << " applied, " << r.skipped
            << " skipped\n"
            << "  verdict:     " << (r.check.ok ? "PASS" : "VIOLATION") << '\n';
  if (!r.check.ok) {
    std::cout << "  violation:   " << r.check.violation << '\n';
    if (r.check.first_divergence_op.has_value())
      std::cout << "  diverges at: op " << *r.check.first_divergence_op
                << '\n';
  }
  return r.check.ok ? 1 : 0;  // exit 0 iff the violation reproduced
}

int cmd_fuzz_shrink(const Args& a) {
  const FuzzTrace trace = load_trace(a.pos[0]);
  const std::size_t threads = a.threads;
  // ddmin probes are walk-shaped replays, one per worker at a time.
  check_walk_envelope(a.mem, threads, "replay probes");
  cap_world_memory(a.mem);
  const auto t0 = std::chrono::steady_clock::now();
  const MinimizeResult m = minimize(trace, threads);
  const auto t1 = std::chrono::steady_clock::now();
  std::cerr << "shrink: " << m.tests_run << " replays (" << threads
            << " threads) in "
            << std::chrono::duration<double>(t1 - t0).count() << "s\n";
  std::cout << "shrink of " << a.pos[0] << ":\n"
            << "  events:     " << trace.events.size() << " -> "
            << m.trace.events.size() << "\n"
            << "  replays:    " << m.tests_run << "\n"
            << "  violates:   " << (m.still_violates ? "yes" : "NO — input"
                                                       " did not violate")
            << '\n';
  if (!m.still_violates) return 1;
  const std::string out = a.str("out", a.pos[0] + ".min");
  save_trace(m.trace, out);
  std::cout << "  wrote " << out << '\n';
  return 0;
}

// ---- sweep -------------------------------------------------------------------

void report_stats(const sweep::SweepStats& stats, const Args& a,
                  bool measured) {
  std::cerr << "sweep: " << stats.cells << " cells (" << stats.rows
            << " rows, " << stats.skipped << " skipped) in " << stats.seconds
            << "s (" << stats.cells_per_sec << " cells/s, " << a.threads
            << " threads, mem " << a.mem.to_string() << ")\n";
  if (measured) {
    std::cerr << "memo: " << stats.memo_hits << " hits, "
              << stats.memo_misses << " misses, " << stats.memo_dropped
              << " dropped inserts, " << stats.memo_bytes << " bytes\n";
  }
}

int cmd_sweep(const Args& a) {
  if (a.has("fig1")) {
    sweep::Fig1Options opt;
    opt.out_dir = a.str("out-dir", "bench/fig1");
    opt.threads = a.threads;
    opt.mem = a.mem;
    const sweep::Fig1Result r = sweep::write_figure1(opt);
    std::cerr << "wrote " << r.csv_path << " and " << r.gp_path << '\n';
    report_stats(r.stats, a, /*measured=*/true);
    return 0;
  }

  sweep::SweepOptions opt;
  if (a.has("grid")) opt.grid = sweep::GridSpec::parse(*a.opt("grid"));
  opt.measure = a.has("measure");
  opt.threads = a.threads;
  opt.mem = a.mem;
  opt.memoize = !a.has("no-memo");
  opt.block_cells = a.num("block", 256);
  MEMU_CHECK_MSG(opt.block_cells >= 1, "--block must be >= 1");

  sweep::MultiSink sinks;
  std::ofstream csv_file, json_file;
  sweep::CsvSink csv_stdout(std::cout);
  std::optional<sweep::CsvSink> csv_sink;
  std::optional<sweep::JsonSink> json_sink;
  const std::string csv_path = a.str("csv", "-");
  if (csv_path == "-") {
    sinks.add(&csv_stdout);
  } else {
    csv_file.open(csv_path);
    MEMU_CHECK_MSG(csv_file.good(), "cannot open --csv " << csv_path);
    csv_sink.emplace(csv_file);
    sinks.add(&*csv_sink);
  }
  if (const auto json_path = a.opt("json")) {
    json_file.open(*json_path);
    MEMU_CHECK_MSG(json_file.good(), "cannot open --json " << *json_path);
    json_sink.emplace(json_file);
    sinks.add(&*json_sink);
  }

  const sweep::SweepStats stats = sweep::run_sweep(opt, sinks);
  report_stats(stats, a, opt.measure);
  return 0;
}

// ---- the parser ----------------------------------------------------------------

// One subcommand and what it declares; its usage line is generated.
struct Command {
  std::string_view name;  // "run", "fuzz run", ...
  std::string_view args;  // positional arguments, for the usage line
  std::size_t min_args, max_args;
  std::vector<std::string_view> values;    // flags that take a value
  std::vector<std::string_view> switches;  // flags that take none
  int (*run)(const Args&);

  bool takes_value(std::string_view flag) const {
    return std::find(values.begin(), values.end(), flag) != values.end();
  }
  bool is_switch(std::string_view flag) const {
    return std::find(switches.begin(), switches.end(), flag) !=
           switches.end();
  }
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table{
      {"bounds", "<N> <f> [nu_max]", 2, 3, {}, {}, cmd_bounds},
      {"run", "<algo>", 1, 1,
       {"n", "f", "k", "writers", "readers", "ops-per-client", "value-bytes",
        "seed", "crash", "delta"},
       {"reorder", "witness"}, cmd_run},
      {"verify", "<b1|41|51|65> <algo>", 2, 2, {"domain", "nu"}, {},
       cmd_verify},
      {"explore", "<abd|cas>", 1, 1, {"n", "max-states", "mem"},
       {"reorder", "reduce", "sleep-sets", "symmetry"}, cmd_explore},
      {"fuzz run", "", 0, 0,
       {"algo", "seed", "walks", "max-steps", "writes", "reads", "check", "n",
        "f", "k", "writers", "readers", "value-bytes", "mix", "threads", "mem",
        "out-dir"},
       {"no-minimize", "expect-violations"}, cmd_fuzz_run},
      {"fuzz replay", "<trace.json>", 1, 1, {}, {}, cmd_fuzz_replay},
      {"fuzz shrink", "<trace.json>", 1, 1, {"out", "threads", "mem"}, {},
       cmd_fuzz_shrink},
      {"sweep", "", 0, 0,
       {"grid", "threads", "mem", "csv", "json", "block", "out-dir"},
       {"measure", "no-memo", "fig1"}, cmd_sweep},
  };
  return table;
}

// Prints the usage of `cmd`, or of every subcommand, and returns 2.
int usage(const Command* cmd) {
  std::cerr << "usage:\n";
  for (const Command& c : commands()) {
    if (cmd != nullptr && cmd != &c) continue;
    std::string line = "  memu " + std::string(c.name);
    const auto add = [&](std::string_view word, std::string_view suffix) {
      if (word.empty()) return;
      if (line.size() + word.size() + suffix.size() > 72) {
        std::cerr << line << '\n';
        line = "      ";
      }
      line += ' ' + std::string(word) + std::string(suffix);
    };
    add(c.args, "");
    for (const auto v : c.values) add("[--" + std::string(v), " V]");
    for (const auto s : c.switches) add("[--" + std::string(s), "]");
    std::cerr << line << '\n';
  }
  std::cerr << "algos: " << algo::name_list() << '\n';
  return 2;
}

// Sets `cmd` to the subcommand named by the leading words of argv and
// parses the rest against its declarations.
void parse(int argc, char** argv, const Command*& cmd, Args& a) {
  const std::vector<std::string> words(argv + 1, argv + argc);
  std::size_t i = 0;
  for (const Command& c : commands()) {
    const std::size_t n = c.name.find(' ') == std::string_view::npos ? 1 : 2;
    if (words.size() >= n && (n == 1 ? words[0] : words[0] + ' ' + words[1]) ==
                                 c.name) {
      cmd = &c;
      i = n;
      break;
    }
  }
  if (cmd == nullptr) throw UsageError("no such subcommand");
  for (; i < words.size(); ++i) {
    const std::string& w = words[i];
    if (w.rfind("--", 0) != 0) {
      a.pos.push_back(w);
      continue;
    }
    const std::string key = w.substr(2);
    const bool takes_value = cmd->takes_value(key);
    if (!takes_value && !cmd->is_switch(key))
      throw UsageError("unknown flag " + w + " for memu " +
                       std::string(cmd->name));
    if (a.has(key)) throw UsageError(w + " given twice");
    if (takes_value && i + 1 == words.size())
      throw UsageError(w + " needs a value");
    a.flags.emplace(key, takes_value ? words[++i] : "");
  }
  if (a.pos.size() < cmd->min_args || a.pos.size() > cmd->max_args)
    throw UsageError("wrong number of arguments for memu " +
                     std::string(cmd->name));
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  const Command* cmd = nullptr;
  try {
    parse(argc, argv, cmd, a);
    // --threads and --mem resolve here, once, for every subcommand that
    // declares them: the flag, else (for --mem) MEMU_MEM_BUDGET, else the
    // default.
    if (cmd->takes_value("threads"))
      a.threads = a.num("threads", engine::default_worker_count());
    if (cmd->takes_value("mem")) a.mem = env::mem_budget_or(a.opt("mem"));
    return cmd->run(a);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage(cmd);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
