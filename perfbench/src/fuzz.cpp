// fuzz-faults: single-threaded fault-injection campaigns in the nightly CI
// matrix shape — abd, cas and ldr at N=5 f=2 with 2 writers, 2 readers and
// FaultMix::standard() — plus the pinned abd-regular shape (3 readers, 6
// reads, 4 writes) checked for atomicity, whose violations are replayed and
// minimized.
//
// ldr is a single-writer regular register: its default SWSR check rejects
// every two-writer history outright, so with 2 writers it is checked for
// the MWMR weak regularity Theorem 6.5 assumes.
//
// Untraced, the run repeats rounds of the four campaigns for --seconds;
// each round draws fresh campaign seeds from --seed. Traced, it times one
// round of run_campaign() and then re-drives every walk of that round
// through the public calls a walk makes (prototype copy, scheduler step,
// injector, History::from_oplog, the checker); each re-driven walk must end
// exactly as the campaign's did.
#include <map>
#include <optional>

#include "bench.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"
#include "fuzz/campaign.h"
#include "fuzz/minimizer.h"
#include "sim/cow_stats.h"

namespace perfbench {
namespace {

using namespace memu;
using namespace memu::fuzz;

struct Campaign {
  SystemSpec spec;
  FuzzPlan plan;
  bool violations_expected = false;  // abd-regular checked atomic
};

// `walks` per campaign; abd-regular runs four times as many, so that a run
// collects a few hundred violations to time minimize() on (about one walk
// in 64 violates).
std::vector<Campaign> campaigns(std::size_t walks) {
  std::vector<Campaign> out;
  for (const char* algo : {"abd", "cas", "ldr"}) {
    Campaign c;
    c.spec.algo = algo;  // N=5 f=2, 2 writers, 2 readers: the spec defaults
    c.plan.walks = walks;
    c.plan.minimize = false;
    c.plan.check = c.spec.algo == "ldr" ? CheckKind::kWeaklyRegular
                                        : CheckKind::kAtomic;
    out.push_back(c);
  }
  Campaign reg;
  reg.spec.algo = "abd-regular";
  reg.spec.n_readers = 3;
  reg.spec.value_size = 60;
  reg.plan.walks = 4 * walks;
  reg.plan.writes_per_writer = 4;
  reg.plan.reads_per_reader = 6;
  reg.plan.check = CheckKind::kAtomic;
  reg.plan.minimize = false;  // minimized here, one timed shrink each
  reg.violations_expected = true;
  out.push_back(reg);
  return out;
}

CheckResult run_check(CheckKind kind, const History& h, const Value& initial) {
  switch (kind) {
    case CheckKind::kAtomic: return check_atomic(h, initial);
    case CheckKind::kRegularSwsr: return check_regular_swsr(h, initial);
    case CheckKind::kWeaklyRegular: return check_weakly_regular(h, initial);
  }
  return CheckResult::fail("unknown check kind");
}

// One walk re-driven through public calls, each inside a span. Mirrors the
// campaign's walk loop: a closed-loop client workload under a seeded
// random-reorder scheduler whose pre-step hook is the fault injector.
WalkResult ladder_walk(const FuzzSystem& proto, const Campaign& c,
                       std::size_t walk) {
  Span span(Layer::kFuzzWalk);
  const std::uint64_t walk_seed = walk_seed_for(c.plan.seed, walk);
  Injector injector(proto.servers, c.spec.f, c.plan.mix,
                    injection_seed_for(walk_seed));
  std::optional<FuzzSystem> sys;
  {
    Span s(Layer::kSimFork);
    sys.emplace(proto);
  }
  World& world = sys->world;
  Scheduler sched(Scheduler::Policy::kRandomReorder, walk_seed);
  sched.enable_metering();
  sched.set_pre_step_hook([&injector](World& w, std::uint64_t steps) {
    Span s(Layer::kFuzzInject);
    injector.before_step(w, steps);
  });

  struct Client {
    bool busy = false;
    std::size_t issued = 0;
  };
  std::map<NodeId, Client> clients;
  for (const NodeId id : sys->writers) clients[id] = {};
  for (const NodeId id : sys->readers) clients[id] = {};
  const std::size_t want = sys->writers.size() * c.plan.writes_per_writer +
                           sys->readers.size() * c.plan.reads_per_reader;
  std::size_t responses = 0;
  std::size_t cursor = world.oplog().size();
  const auto absorb = [&](bool release) {
    const OpLog& log = world.oplog();
    for (; cursor < log.size(); ++cursor) {
      const auto it = clients.find(log[cursor].client);
      if (it == clients.end() || log[cursor].kind != OpEvent::Kind::kResponse)
        continue;
      if (release) it->second.busy = false;
      ++responses;
    }
  };
  const auto never = [](const World&) { return false; };
  constexpr std::size_t kStallGrace = 1'000;  // the campaign's stall limit

  sched.observe(world);
  std::size_t stalled = 0;
  while (sched.steps_taken() < c.plan.max_steps) {
    absorb(true);
    if (responses >= want) break;
    for (std::size_t i = 0; i < sys->writers.size(); ++i) {
      Client& cl = clients[sys->writers[i]];
      if (cl.busy || cl.issued >= c.plan.writes_per_writer) continue;
      world.invoke(sys->writers[i],
                   Invocation{OpType::kWrite,
                              unique_value(static_cast<std::uint32_t>(i + 1),
                                           cl.issued + 1, c.spec.value_size)});
      cl.busy = true;
      ++cl.issued;
    }
    for (const NodeId id : sys->readers) {
      Client& cl = clients[id];
      if (cl.busy || cl.issued >= c.plan.reads_per_reader) continue;
      world.invoke(id, Invocation{OpType::kRead, {}});
      cl.busy = true;
      ++cl.issued;
    }
    const std::uint64_t before = sched.steps_taken();
    {
      Span s(Layer::kSimDeliver);
      sched.run_until(world, never, 1);
    }
    if (sched.steps_taken() == before) {
      if (++stalled >= kStallGrace) break;
    } else {
      stalled = 0;
    }
  }
  absorb(false);

  WalkResult r;
  r.walk_seed = walk_seed;
  r.completed = responses >= want;
  r.steps = sched.steps_taken();
  r.injected = injector.events().size();
  History h;
  {
    Span s(Layer::kHistory);
    h = History::from_oplog(world.oplog());
  }
  r.ops = h.size();
  {
    Span s(Layer::kCheck);
    r.check = run_check(c.plan.check, h, sys->initial);
  }
  Span s(Layer::kSimRelease);
  sys.reset();
  return r;
}

struct Round {
  std::size_t walks = 0;
  std::uint64_t steps = 0;
  double campaign_s = 0;
  std::vector<double> shrink_s;        // per minimize() call
  std::vector<double> shrink_probe_s;  // the same, over its probe count
  std::vector<CampaignSummary> summaries;
};

// One round: the four campaigns on seeds drawn from (seed, round), each
// walk checked against its expected verdict, and every abd-regular
// violation replayed, minimized and replayed again.
Round run_round(const Options& opt, std::vector<Campaign>& cs,
                std::uint64_t round, Result& r) {
  Round out;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    Campaign& c = cs[i];
    c.plan.seed = derive(opt.seed, 100 + round * cs.size() + i);
    const Clock::time_point t0 = Clock::now();
    CampaignSummary sum = run_campaign(c.spec, c.plan);
    out.campaign_s += seconds_since(t0);
    out.walks += sum.walks.size();
    out.steps += sum.steps_total;
    for (const WalkResult& w : sum.walks) {
      const auto where = [&] {
        return c.spec.algo + " seed " + std::to_string(c.plan.seed) +
               " walk " + std::to_string(w.walk_index) + ": ";
      };
      if (!c.violations_expected || w.check.ok) {
        const bool ok = c.violations_expected ||
                        w.check.ok != opt.wrong_reference;
        r.check(ok, ok ? "" : where() + (w.check.ok ? "expected a violation"
                                                    : w.check.violation));
        continue;
      }
      const bool reproduces = !replay_trace(w.trace).check.ok;
      const Clock::time_point m0 = Clock::now();
      const MinimizeResult m = minimize(w.trace, 1);
      out.shrink_s.push_back(seconds_since(m0));
      out.shrink_probe_s.push_back(
          out.shrink_s.back() /
          static_cast<double>(std::max<std::size_t>(1, m.tests_run)));
      const bool still = m.still_violates && !replay_trace(m.trace).check.ok;
      r.check(reproduces && still,
              where() + "violation " +
                  (reproduces ? "did not survive minimize()"
                              : "did not reproduce under replay_trace()"));
    }
    out.summaries.push_back(std::move(sum));
  }
  return out;
}

}  // namespace

Result run_fuzz(const Options& opt) {
  Result r;
  const bool smoke = opt.size == Size::kSmoke;
  std::vector<Campaign> cs = campaigns(smoke ? 8 : 64);

  // Set-up: build each system and run a short warm-up campaign on it,
  // five times; the median is setup_s.
  Calibrator cal;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (const Campaign& c : cs) {
      const FuzzSystem sys = make_fuzz_system(c.spec);
      FuzzPlan warm = c.plan;
      warm.seed = derive(opt.seed, 7 + static_cast<std::uint64_t>(rep));
      warm.walks = smoke ? 2 : 64;
      const CampaignSummary s = run_campaign(c.spec, warm);
      r.check(sys.servers.size() == c.spec.n_servers &&
                  s.walks.size() == warm.walks,
              "warm-up campaign on " + c.spec.algo);
    }
    const double raw = seconds_since(t0);
    setup_s.push_back(raw * cal.factor());
  }
  r.set("setup_s", median(setup_s), "s");

  if (!opt.trace) {
    std::vector<double> walk_rates, step_rates, shrink_s, probe_s;
    std::size_t walks = 0;
    const Clock::time_point start = Clock::now();
    std::uint64_t round = 0;
    do {
      const Round rd = run_round(opt, cs, round++, r);
      const double f = cal.factor();
      const double scaled = rd.campaign_s * f;
      walk_rates.push_back(static_cast<double>(rd.walks) / scaled);
      step_rates.push_back(static_cast<double>(rd.steps) / scaled);
      for (const double s : rd.shrink_s) shrink_s.push_back(s * f);
      for (const double s : rd.shrink_probe_s) probe_s.push_back(s * f);
      walks += rd.walks;
    } while (seconds_since(start) < opt.seconds);
    r.check(!shrink_s.empty(), "no abd-regular violation to minimize");
    r.set("work_per_s", median(walk_rates), "1/s");
    r.set("aux_per_s", median(step_rates), "1/s");
    // The bounded latency is minimize() time per probe: the probes one
    // counterexample needs are bimodal (median ~12, p90 ~75), which moved
    // the per-call median by 40% between seeds.
    r.set("p50_ms", 1e3 * median(probe_s), "ms");
    r.set("p90_ms", 1e3 * quantile(probe_s, 0.9), "ms");
    r.set("peak_rss_mb", peak_rss_mb(cal), "MB");
    r.notes.push_back("walks_per_s = " + std::to_string(median(walk_rates)) +
                      " 1/s (median of " + std::to_string(round) +
                      " rounds, " + std::to_string(walks) +
                      " walks, at reference speed; median burst " +
                      std::to_string(median(cal.bursts_ms())) + " ms)");
    r.notes.push_back("shrink_s.p50 = " + std::to_string(median(shrink_s)) +
                      " s, shrink_s.p90 = " +
                      std::to_string(quantile(shrink_s, 0.9)) + " s (" +
                      std::to_string(shrink_s.size()) +
                      " minimizations); per probe p50 = " +
                      std::to_string(median(probe_s)) + " s, p90 = " +
                      std::to_string(quantile(probe_s, 0.9)) + " s");
    r.notes.push_back("setup_s = " + std::to_string(median(setup_s)) + " s");
    r.notes.push_back("peak_rss_mb = " + std::to_string(peak_rss_mb(cal)) + " MB");
    return r;
  }

  // Traced: a few untraced rounds of run_campaign(), then the same walks
  // re-driven with spans, then the abd-regular shrinks with spans.
  Tracer& tracer = *Tracer::active();
  Tracer::activate(nullptr);
  const std::uint64_t rounds = smoke ? 1 : 16;
  std::vector<Round> rds;
  std::vector<std::vector<Campaign>> plans;  // each round's seeded campaigns
  double wall = 0;
  std::size_t walks_total = 0;
  const cowstats::Snapshot before = cowstats::snapshot();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    rds.push_back(run_round(opt, cs, i, r));
    plans.push_back(cs);
    wall += rds.back().campaign_s;
    walks_total += rds.back().walks;
  }
  const cowstats::Snapshot cow = cowstats::snapshot() - before;

  Tracer::activate(&tracer);
  tracer.reset_stats();
  tracer.begin_run();
  std::uint64_t steps = 0, injected = 0;
  const Clock::time_point l0 = Clock::now();
  for (std::size_t k = 0; k < rds.size(); ++k) {
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const Campaign& c = plans[k][i];
      Span run(Layer::kRun);
      const FuzzSystem proto = make_fuzz_system(c.spec);
      for (const WalkResult& want : rds[k].summaries[i].walks) {
        const WalkResult got = ladder_walk(proto, c, want.walk_index);
        steps += got.steps;
        injected += got.injected;
        r.check(got.steps == want.steps && got.injected == want.injected &&
                    got.ops == want.ops && got.completed == want.completed &&
                    got.check.ok == want.check.ok &&
                    got.check.violation == want.check.violation,
                "re-driven " + c.spec.algo + " walk " +
                    std::to_string(want.walk_index) + " took " +
                    std::to_string(got.steps) + " steps, the campaign's " +
                    std::to_string(want.steps));
      }
    }
  }
  const double ladder_s = seconds_since(l0);
  std::uint64_t probes = 0, shrinks = 0;
  for (std::size_t k = 0; k < rds.size(); ++k) {
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (!cs[i].violations_expected) continue;
      for (const WalkResult& w : rds[k].summaries[i].walks) {
        if (w.check.ok) continue;
        Span s(Layer::kFuzzMinimize);
        probes += minimize(w.trace, 1).tests_run;
        ++shrinks;
      }
    }
  }
  Tracer::activate(nullptr);

  for (const auto& [layer, name] :
       std::vector<std::pair<Layer, const char*>>{
           {Layer::kFuzzWalk, "fuzz.walk"},
           {Layer::kFuzzInject, "fuzz.inject"},
           {Layer::kSimFork, "sim.fork"},
           {Layer::kSimDeliver, "sim.deliver"},
           {Layer::kSimRelease, "sim.release"},
           {Layer::kHistory, "consistency.history"},
           {Layer::kCheck, "consistency.check"}})
    report_layer(r, tracer, layer, name, wall);
  const double walks = static_cast<double>(walks_total);
  r.set("fuzz.walk.steps", static_cast<double>(steps) / walks, "count");
  r.set("fuzz.walk.injected", static_cast<double>(injected) / walks, "count");
  r.set("fuzz.system.builds", static_cast<double>(cow.fuzz_system_builds),
        "count");
  r.set("fuzz.system.reuses", static_cast<double>(cow.fuzz_system_reuses),
        "count");
  const LayerStat& mins = tracer.stat(Layer::kFuzzMinimize);
  r.set("fuzz.minimize.calls", static_cast<double>(mins.calls), "count");
  r.set("fuzz.minimize.probes", static_cast<double>(probes), "count");
  r.set("fuzz.minimize.probe_ns",
        probes > 0 ? static_cast<double>(mins.total_ns) /
                         static_cast<double>(probes)
                   : 0,
        "ns");
  r.set("trace.untraced_s", wall, "s");
  r.set("trace.traced_s", ladder_s, "s");
  r.set("trace.overhead_s", ladder_s - wall, "s");
  r.set("trace.overhead_share", wall > 0 ? (ladder_s - wall) / wall : 0,
        "ratio");
  r.notes.push_back(std::to_string(rounds) + " rounds: " +
                    std::to_string(walks_total) + " walks in " +
                    std::to_string(wall) + " s untraced, " +
                    std::to_string(ladder_s) + " s re-driven; " +
                    std::to_string(shrinks) + " shrinks, " +
                    std::to_string(probes) + " probes");
  return r;
}

}  // namespace perfbench
