// explore-cas4 and explore-par: exhaustive model checking of CAS N=4 f=1
// k=1, one write concurrent with one read, FIFO channels, fingerprint
// dedupe, no reduction — sequentially, or on 4 workers.
//
// Untraced, the run explores the whole space back to back for --seconds and
// times every 64Ki expanded states (a "slice") from the invariant callback.
// Traced, it times one explore() and then walks the same space itself
// through the public calls the engine makes per state — World copy,
// deliver, state_hash, VisitedSet::try_insert, and at terminal states
// History::from_oplog + check_atomic. That walk is the layer ladder; its
// state and terminal counts must equal explore()'s.
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "algo/cas/system.h"
#include "bench.h"
#include "common/arena.h"
#include "common/rng.h"
#include "consistency/checker.h"
#include "engine/visited.h"
#include "sim/cow_stats.h"
#include "sim/explorer.h"

namespace perfbench {
namespace {

using namespace memu;

constexpr std::size_t kValueBytes = 12;

// Counters explore() reports for the write || read space. They do not
// depend on the written payload, so every seed must reproduce them.
struct Reference {
  std::size_t n_servers, states, terminals, transitions, deduped;
};
constexpr Reference kCas4{4, 1'638'100, 40, 10'520'756, 8'882'657};
constexpr Reference kCas3{3, 103'147, 24, 511'863, 408'717};  // smoke size

// The written value: seed-derived bytes, never equal to the initial value.
Value payload(std::uint64_t seed) {
  Rng rng(seed);
  Value v(kValueBytes);
  for (auto& b : v) b = rng.next_byte();
  if (v == enum_value(0, kValueBytes)) v[0] = 1;
  return v;
}

World make_world(std::size_t n_servers, const Value& written) {
  cas::Options opt;
  opt.n_servers = n_servers;
  opt.f = 1;
  opt.k = 1;
  opt.value_size = kValueBytes;
  opt.n_writers = 1;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, written});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return std::move(sys.world);
}

// Both operations must have responded and the history must be atomic.
std::optional<std::string> terminal_verdict(const World& w) {
  if (w.oplog().responses_since(0) < 2) return "operation stuck";
  History h;
  {
    Span s(Layer::kHistory);
    h = History::from_oplog(w.oplog());
  }
  Span s(Layer::kCheck);
  const CheckResult verdict = check_atomic(h, enum_value(0, kValueBytes));
  if (!verdict.ok) return verdict.violation;
  return std::nullopt;
}

// Counts expanded states from the invariant callback, which runs on every
// worker. Each thread batches kFlush states before taking the lock, so the
// count costs one lock per kFlush states; the slice boundaries are exact to
// within kFlush states per worker. The thread that crosses a boundary runs
// a calibration burst outside the lock; a slice's duration excludes the
// burst and is scaled by the burst's factor.
class SliceClock {
 public:
  static constexpr std::uint64_t kFlush = 256;

  SliceClock(std::uint64_t slice_states, Calibrator& cal)
      : slice_(slice_states), cal_(cal), last_(Clock::now()) {}

  StateCheck invariant() {
    return [this](const World&) -> std::optional<std::string> {
      tick();
      return std::nullopt;
    };
  }

  // Scaled durations of the full slices, and of the whole exploration
  // (slices plus the tail after the last boundary). Call once explore()
  // has returned.
  const std::vector<double>& slices_s() const { return slices_s_; }
  double total_s() {
    const double tail = seconds_since(last_);
    double sum = tail * cal_.factor();
    for (const double s : slices_s_) sum += s;
    return sum;
  }

  // Busiest worker's state count over the mean worker's.
  double imbalance() const {
    if (per_thread_.empty()) return 0;
    std::uint64_t max = 0, sum = 0;
    for (const auto& [id, n] : per_thread_) {
      max = std::max(max, n);
      sum += n;
    }
    return sum > 0 ? static_cast<double>(max) *
                         static_cast<double>(per_thread_.size()) /
                         static_cast<double>(sum)
                   : 0;
  }

 private:
  struct Local {
    std::uint64_t generation = 0;
    std::uint64_t pending = 0;
  };
  static inline std::atomic<std::uint64_t> next_generation_{1};

  void tick() {
    thread_local Local local;
    if (local.generation != generation_) local = {generation_, 0};
    if (++local.pending < kFlush) return;
    std::unique_lock<std::mutex> lock(mu_);
    per_thread_[std::this_thread::get_id()] += local.pending;
    total_ += local.pending;
    local.pending = 0;
    if (total_ < next_boundary_ || calibrating_) return;
    next_boundary_ += slice_;
    const double raw = seconds_since(last_);
    calibrating_ = true;
    lock.unlock();
    const double f = cal_.factor();
    lock.lock();
    calibrating_ = false;
    slices_s_.push_back(raw * f);
    last_ = Clock::now();
  }

  const std::uint64_t generation_ = next_generation_.fetch_add(1);
  const std::uint64_t slice_;
  Calibrator& cal_;  // used only by the thread that set calibrating_
  std::mutex mu_;    // guards everything below
  Clock::time_point last_;
  bool calibrating_ = false;
  std::uint64_t total_ = 0;
  std::uint64_t next_boundary_ = slice_;
  std::map<std::thread::id, std::uint64_t> per_thread_;
  std::vector<double> slices_s_;
};

bool matches(const ExploreResult& r, const Reference& ref) {
  return r.ok && r.complete && r.states_visited == ref.states &&
         r.terminal_states == ref.terminals &&
         r.transitions == ref.transitions && r.deduped == ref.deduped;
}

std::string counters(const ExploreResult& r) {
  return "states=" + std::to_string(r.states_visited) +
         " terminals=" + std::to_string(r.terminal_states) +
         " transitions=" + std::to_string(r.transitions) +
         " deduped=" + std::to_string(r.deduped) +
         " ok=" + std::to_string(r.ok) + " complete=" +
         std::to_string(r.complete) + (r.ok ? "" : " violation: " + r.violation);
}

// The layer ladder: a depth-first walk of the space that makes, per state,
// the same public calls the engine makes, each inside a span.
class Ladder {
 public:
  std::size_t states = 0, terminals = 0, transitions = 0, deduped = 0;
  std::size_t depth_cut = 0, fresh = 0, inserts = 0;
  std::vector<std::string> violations;

  explicit Ladder(std::size_t max_depth) : max_depth_(max_depth) {}

  void walk(const World& initial) {
    Span run(Layer::kRun);
    std::optional<World> root;
    {
      Span s(Layer::kSimFork);
      root.emplace(initial);
    }
    expand(*root, 0);
  }

 private:
  void expand(const World& w, std::size_t depth) {
    std::uint64_t fp;
    {
      Span s(Layer::kSimStateHash);
      fp = w.state_hash();
    }
    bool is_fresh;
    {
      Span s(Layer::kVisitedInsert);
      is_fresh = visited_.try_insert(fp);
    }
    ++inserts;
    if (!is_fresh) {
      ++deduped;
      return;
    }
    ++fresh;
    ++states;
    std::vector<ChannelId> chans;
    {
      Span s(Layer::kSimSuccessors);
      chans = w.deliverable_channels();
    }
    if (chans.empty()) {
      ++terminals;
      if (auto why = terminal_verdict(w)) violations.push_back(*why);
      return;
    }
    if (depth >= max_depth_) {
      ++depth_cut;
      return;
    }
    for (const ChannelId chan : chans) {
      std::size_t index;
      {
        Span s(Layer::kSimSuccessors);
        index = w.first_deliverable_index(chan);
      }
      std::optional<World> child;
      {
        Span s(Layer::kSimFork);
        child.emplace(w);
      }
      {
        Span s(Layer::kSimDeliver);
        child->deliver(chan, index);
      }
      ++transitions;
      expand(*child, depth + 1);
      Span s(Layer::kSimRelease);
      child.reset();
    }
  }

  const std::size_t max_depth_;
  engine::VisitedSet visited_{engine::VisitedSet::Options{}};
};

struct Timed {
  ExploreResult result;
  double seconds = 0;
  cowstats::Snapshot cow;
};

Timed timed_explore(const World& w, const ExploreOptions& eopt,
                    const StateCheck& invariant) {
  Timed t;
  const cowstats::Snapshot before = cowstats::snapshot();
  const Clock::time_point t0 = Clock::now();
  t.result = explore(w, eopt, invariant, terminal_verdict);
  t.seconds = seconds_since(t0);
  t.cow = cowstats::snapshot() - before;
  return t;
}

}  // namespace

Result run_explore(const Options& opt) {
  Result r;
  const bool smoke = opt.size == Size::kSmoke;
  Reference ref = smoke ? kCas3 : kCas4;
  if (opt.wrong_reference) ++ref.states;
  const std::uint64_t slice_states = smoke ? 1u << 12 : 1u << 16;
  const std::size_t warm_states = smoke ? 2'000 : 30'000;
  const Value written = payload(derive(opt.seed, 1));

  ExploreOptions eopt;
  eopt.max_states = 4'000'000;
  eopt.threads = opt.threads;

  // Set-up: build the system and explore a warm-up prefix (sequential, so
  // its truncated counters are deterministic), five times; the median is
  // setup_s. A second seed-derived payload must give identical counters.
  Calibrator cal;
  std::vector<double> setup_s;
  ExploreOptions warm;
  warm.max_states = warm_states;
  ExploreResult warm_result;
  World world;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    world = make_world(ref.n_servers, written);
    warm_result = explore(world, warm, {}, terminal_verdict);
    const double raw = seconds_since(t0);
    setup_s.push_back(raw * cal.factor());
  }
  r.set("setup_s", median(setup_s), "s");
  {
    const World other =
        make_world(ref.n_servers, payload(derive(opt.seed, 2)));
    const ExploreResult o = explore(other, warm, {}, terminal_verdict);
    r.check(o.ok && warm_result.ok &&
                o.states_visited == warm_result.states_visited &&
                o.terminal_states == warm_result.terminal_states &&
                o.transitions == warm_result.transitions &&
                o.deduped == warm_result.deduped,
            "warm-up counters depend on the payload: " +
                counters(warm_result) + " vs " + counters(o));
  }

  const auto check_full = [&](const ExploreResult& res, const char* what) {
    r.check(matches(res, ref), std::string(what) + " " + counters(res) +
                                   " differs from the reference states=" +
                                   std::to_string(ref.states));
  };

  if (!opt.trace) {
    std::vector<double> slices;
    double states = 0, transitions = 0, scaled_s = 0, raw_s = 0, last_s = 0;
    std::size_t runs = 0;
    const Clock::time_point start = Clock::now();
    do {
      SliceClock clock(slice_states, cal);
      const Timed t = timed_explore(world, eopt, clock.invariant());
      check_full(t.result, "explore()");
      slices.insert(slices.end(), clock.slices_s().begin(),
                    clock.slices_s().end());
      states += static_cast<double>(t.result.states_visited);
      transitions += static_cast<double>(t.result.transitions);
      scaled_s += clock.total_s();
      raw_s += t.seconds;
      last_s = t.seconds;
      ++runs;
    } while (seconds_since(start) + last_s <= opt.seconds);
    r.set("work_per_s", states / scaled_s, "1/s");
    r.set("aux_per_s", transitions / scaled_s, "1/s");
    r.set("p50_ms", 1e3 * median(slices), "ms");
    r.set("p90_ms", 1e3 * quantile(slices, 0.9), "ms");
    r.set("peak_rss_mb", peak_rss_mb(cal), "MB");
    r.notes.push_back("states_per_s = " + std::to_string(states / scaled_s) +
                      " 1/s at reference speed, " +
                      std::to_string(states / raw_s) + " 1/s raw (" +
                      std::to_string(runs) + " explorations, " +
                      std::to_string(slices.size()) + " slices of " +
                      std::to_string(slice_states) + " states; median burst " +
                      std::to_string(median(cal.bursts_ms())) + " ms)");
    r.notes.push_back("setup_s = " + std::to_string(median(setup_s)) + " s");
    r.notes.push_back("peak_rss_mb = " + std::to_string(peak_rss_mb(cal)) + " MB");
    return r;
  }

  // Traced: one untraced explore() at the workload's width, the sequential
  // explore() that speedup_x divides by when the width is > 1, then the
  // ladder.
  Tracer& tracer = *Tracer::active();
  Tracer::activate(nullptr);
  SliceClock clock(slice_states, cal);
  const Timed t = timed_explore(world, eopt, clock.invariant());
  check_full(t.result, "explore()");
  double sequential_s = t.seconds;
  if (opt.threads > 1) {
    ExploreOptions seq = eopt;
    seq.threads = 1;
    const Timed s = timed_explore(world, seq, {});
    check_full(s.result, "sequential explore()");
    sequential_s = s.seconds;
  }
  Tracer::activate(&tracer);
  tracer.reset_stats();
  tracer.begin_run();
  Ladder ladder(eopt.max_depth);
  const Clock::time_point l0 = Clock::now();
  ladder.walk(world);
  const double ladder_s = seconds_since(l0);
  Tracer::activate(nullptr);

  const ExploreResult& e = t.result;
  r.check(ladder.states == e.states_visited &&
              ladder.terminals == e.terminal_states &&
              ladder.transitions == e.transitions &&
              ladder.deduped == e.deduped && ladder.depth_cut == 0,
          "layer ladder reached states=" + std::to_string(ladder.states) +
              " terminals=" + std::to_string(ladder.terminals) +
              " transitions=" + std::to_string(ladder.transitions) +
              " deduped=" + std::to_string(ladder.deduped) +
              " but explore() " + counters(e));
  r.check(ladder.violations.empty(),
          "ladder terminal check failed: " +
              (ladder.violations.empty() ? "" : ladder.violations.front()));

  // The ladder is sequential work, so its shares, the unexplained
  // remainder and the tracing overhead are taken against the sequential
  // explore() of the same space.
  const double wall = sequential_s;
  for (const auto& [layer, name] :
       std::vector<std::pair<Layer, const char*>>{
           {Layer::kSimFork, "sim.fork"},
           {Layer::kSimDeliver, "sim.deliver"},
           {Layer::kSimStateHash, "sim.state_hash"},
           {Layer::kSimSuccessors, "sim.successors"},
           {Layer::kSimRelease, "sim.release"},
           {Layer::kVisitedInsert, "engine.visited.insert"},
           {Layer::kHistory, "consistency.history"},
           {Layer::kCheck, "consistency.check"}})
    report_layer(r, tracer, layer, name, wall);
  const double states = static_cast<double>(e.states_visited);
  r.set("sim.cow_bytes_per_state",
        states > 0 ? static_cast<double>(t.cow.bytes_copied) / states : 0,
        "B");
  r.set("sim.slab_bytes", static_cast<double>(worldmem::reserved_bytes()),
        "B");
  r.set("engine.visited.fresh_ratio",
        ladder.inserts > 0 ? static_cast<double>(ladder.fresh) /
                                 static_cast<double>(ladder.inserts)
                           : 0,
        "ratio");
  r.set("engine.visited.bytes", static_cast<double>(e.dedupe_bytes), "B");
  r.set("engine.frontier.bytes", static_cast<double>(e.frontier_bytes), "B");
  r.set("engine.unexplained_share",
        wall > 0 ? (wall - static_cast<double>(tracer.layers_self_ns()) * 1e-9) /
                       wall
                 : 0,
        "ratio");
  r.set("engine.pool.steal_batches", static_cast<double>(e.steal_batches),
        "count");
  r.set("engine.pool.tasks_stolen", static_cast<double>(e.tasks_stolen),
        "count");
  r.set("engine.pool.imbalance", clock.imbalance(), "ratio");
  r.set("engine.pool.speedup_x", sequential_s / t.seconds, "x");
  r.set("ladder.states", static_cast<double>(ladder.states), "count");
  r.set("ladder.terminals", static_cast<double>(ladder.terminals), "count");
  r.set("trace.untraced_s", wall, "s");
  r.set("trace.traced_s", ladder_s, "s");
  r.set("trace.overhead_s", ladder_s - wall, "s");
  r.set("trace.overhead_share", wall > 0 ? (ladder_s - wall) / wall : 0,
        "ratio");
  r.notes.push_back("explore(): " + counters(e) + " in " +
                    std::to_string(t.seconds) + " s; ladder: " +
                    std::to_string(ladder.states) + " states, " +
                    std::to_string(ladder.terminals) + " terminals in " +
                    std::to_string(ladder_s) + " s");
  return r;
}

}  // namespace perfbench
