// prove-fig1: the Theorem 4.1/5.1 pair-injectivity cases of the
// proof_harness_41 bench and the Theorem 6.5 staged cases of
// proof_harness_65, at larger value domains, plus the measured Figure 1
// sweep (N=21 f=10 nu=1:16, measured, memoized).
//
// One pass runs every pair alpha(v1,v2) through find_critical_pair(), every
// value tuple through run_staged_execution(), and the sweep through
// run_sweep(). The values and the order they run in are drawn from --seed;
// each case must HOLD (its counting certificate reaches log2 of the pair
// count) and be injective, and every sweep row must equal the committed
// bench/fig1/fig1_data.csv row.
//
// Untraced, passes repeat for --seconds. Traced, one untraced pass is timed,
// the same pass runs with spans, and then the layers the pass reaches only
// inside the library are called directly: probe_read() on each pair's
// quiesced point, the Reed-Solomon codec at the CAS case shapes, and
// evaluate_bounds()/evaluate_measured() per Figure 1 cell.
#include <cmath>
#include <fstream>
#include <map>
#include <set>

#include "adversary/harness.h"
#include "adversary/theorem65.h"
#include "bench.h"
#include "codec/codec.h"
#include "common/rng.h"
#include "engine/scheduler.h"
#include "sim/cow_stats.h"
#include "sweep/fig1.h"
#include "sweep/sweep.h"

namespace perfbench {
namespace {

using namespace memu;
using namespace memu::adversary;

struct PairCase {
  std::string name;
  SutFactory factory;
  std::size_t domain;
  bool gossip_variant;  // Theorem 5.1: flush server channels before probes
};

struct StagedCase {
  std::string name;
  MwSutFactory factory;
  std::size_t domain, nu;
};

// The proof_harness_41 cases, each at `extra` more values than there.
std::vector<PairCase> pair_cases(std::size_t extra) {
  return {
      {"ABD N=5 f=2", abd_sut_factory(5, 2, 16), 5 + extra, false},
      {"ABD N=7 f=3", abd_sut_factory(7, 3, 16), 4 + extra, false},
      {"ABD N=5 f=2 SWMR", abd_swmr_sut_factory(5, 2, 16), 5 + extra, false},
      {"CAS N=5 f=1 k=3", cas_sut_factory(5, 1, 3, 18, {}), 5 + extra, false},
      {"CAS N=7 f=2 k=3", cas_sut_factory(7, 2, 3, 18, {}), 4 + extra, false},
      {"CASGC N=5 f=1 k=3 d=1", cas_sut_factory(5, 1, 3, 18, std::size_t{1}),
       4 + extra, false},
      {"LDR N=5 f=1", ldr_sut_factory(5, 1, 16), 4 + extra, false},
      {"STRIP N=5 f=2", strip_sut_factory(5, 2, 16), 4 + extra, false},
      {"ABD N=5 f=2 (5.1)", abd_sut_factory(5, 2, 16), 4 + extra, true},
      {"GOSSIP N=5 f=2 (5.1)", gossip_sut_factory(5, 2, 16), 4 + extra, true},
      {"CAS N=5 f=1 k=3 (5.1)", cas_sut_factory(5, 1, 3, 18, {}), 4 + extra,
       true},
  };
}

// The proof_harness_65 cases, each at `extra` more values than there.
std::vector<StagedCase> staged_cases(std::size_t extra) {
  return {
      {"ABD N=5 f=2 nu=2", abd_mw_factory(5, 2, 2, 18), 4 + extra, 2},
      {"ABD N=5 f=2 nu=3", abd_mw_factory(5, 2, 3, 18), 3 + extra, 3},
      {"ABD N=7 f=3 nu=2", abd_mw_factory(7, 3, 2, 18), 4 + extra, 2},
      {"CAS N=5 f=1 k=3 nu=2", cas_mw_factory(5, 1, 3, 2, 18), 4 + extra, 2},
      {"CAS N=7 f=2 k=3 nu=2", cas_mw_factory(7, 2, 3, 2, 18), 3 + extra, 2},
      {"CAS N=7 f=2 k=3 nu=3", cas_mw_factory(7, 2, 3, 3, 18), 3 + extra, 3},
      {"STRIP N=5 f=1 nu=2", strip_mw_factory(5, 1, 2, 18), 3 + extra, 2},
      {"STRIP N=7 f=2 nu=3", strip_mw_factory(7, 2, 3, 18), 3 + extra, 3},
      {"LDR N=5 f=2 nu=2", ldr_mw_factory(5, 2, 2, 18), 3 + extra, 2},
      {"CAS+hash N=5 f=1 k=3 nu=2", cas_hash_mw_factory(5, 1, 3, 2, 18),
       4 + extra, 2},
      {"CAS+hash N=7 f=2 k=3 nu=2", cas_hash_mw_factory(7, 2, 3, 2, 18),
       3 + extra, 2},
      {"CAS+hash N=7 f=2 k=3 nu=3", cas_hash_mw_factory(7, 2, 3, 3, 18),
       3 + extra, 3},
  };
}

// `count` distinct nonzero value indices (0 is the initial value's index).
std::vector<std::uint64_t> value_indices(Rng& rng, std::size_t count) {
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> out;
  while (out.size() < count) {
    const std::uint64_t i = 1 + rng.next_below(1u << 20);
    if (seen.insert(i).second) out.push_back(i);
  }
  return out;
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

// Collects the Figure 1 rows in the committed CSV's format (a measured
// sweep always passes `m`).
class Fig1Rows : public sweep::RowSink {
 public:
  std::vector<std::string> rows;
  void row(const sweep::Cell& cell, const sweep::BoundsRow& b,
           const sweep::MeasuredRow* m) override {
    std::string line = std::to_string(cell.nu);
    for (const double v : {b.thm_b1, b.thm_41, b.thm_51, b.thm_65, b.abd,
                           b.erasure, m->abd, m->cas, m->casgc, m->ldr}) {
      line += ',';
      line += sweep::format_value(v);
    }
    rows.push_back(line);
  }
};

// Data rows of the committed Figure 1 CSV (comments and header skipped).
std::vector<std::string> reference_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("nu,", 0) == 0) continue;
    rows.push_back(line);
  }
  return rows;
}

struct Pass {
  std::size_t executions = 0;  // pairs + tuples certified
  double harness_s = 0;        // time inside the harness calls
  double sweep_s = 0;
  std::size_t cells = 0;
  sweep::SweepStats stats;
  std::vector<double> execution_s;  // one per pair or tuple
};

class Prover {
 public:
  Prover(const Options& opt, Result& r, std::vector<std::string> reference)
      : opt_(opt), r_(r), reference_(std::move(reference)) {
    const std::size_t extra = opt.size == Size::kSmoke ? 0 : 2;
    pairs_ = pair_cases(extra);
    staged_ = staged_cases(extra);
    if (opt.size == Size::kSmoke) {
      for (PairCase& c : pairs_) c.domain = 3;
      for (StagedCase& c : staged_) c.domain = c.nu;
    }
  }

  // One pass over every case; `pass` selects the seed-derived values and
  // order. With `check`, every case and sweep row counts as an operation.
  Pass run(std::uint64_t pass, bool check) {
    Pass out;
    Rng rng(derive(opt_.seed, 1000 + pass));
    for (const PairCase& c : pairs_) run_pairs(c, rng, out, check);
    for (const StagedCase& c : staged_) run_staged(c, rng, out, check);
    sweep::SweepOptions so;
    so.grid = sweep::figure1_grid();
    so.measure = true;
    Fig1Rows rows;
    const Clock::time_point t0 = Clock::now();
    out.stats = sweep::run_sweep(so, rows);
    out.sweep_s = seconds_since(t0);
    out.cells = out.stats.rows;
    if (check) {
      std::vector<std::string> want = reference_;
      if (opt_.wrong_reference && !want.empty()) want.front() += "0";
      for (std::size_t i = 0; i < std::max(want.size(), rows.rows.size());
           ++i) {
        const std::string got = i < rows.rows.size() ? rows.rows[i] : "";
        const std::string exp = i < want.size() ? want[i] : "";
        r_.check(got == exp, "Figure 1 row " + std::to_string(i) + " is '" +
                                 got + "', the committed CSV has '" + exp +
                                 "'");
      }
    }
    return out;
  }

  const std::vector<PairCase>& pair_cases_list() const { return pairs_; }

 private:
  void run_pairs(const PairCase& c, Rng& rng, Pass& out, bool check) {
    const std::size_t value_size = c.factory().value_size;
    const std::vector<std::uint64_t> idx = value_indices(rng, c.domain);
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t j = 0; j < idx.size(); ++j)
        if (i != j) order.emplace_back(i, j);
    shuffle(order, rng);
    ProbeOptions probe;
    probe.flush_gossip = c.gossip_variant;

    bool all_ok = true;
    std::set<Bytes> signatures;
    std::map<std::uint32_t, std::set<Bytes>> q1;
    std::set<std::pair<std::uint32_t, Bytes>> q2;
    for (const auto& [i, j] : order) {
      const Clock::time_point t0 = Clock::now();
      CriticalPointInfo info;
      {
        Span s(Layer::kCriticalPair);
        info = find_critical_pair(c.factory, enum_value(idx[i], value_size),
                                  enum_value(idx[j], value_size), probe);
      }
      const double dt = seconds_since(t0);
      out.harness_s += dt;
      out.execution_s.push_back(dt);
      ++out.executions;
      all_ok &= info.found && info.probes_consistent && info.single_change;
      if (!info.found) continue;
      signatures.insert(info.signature);
      for (const auto& [id, state] : info.q1_states) q1[id].insert(state);
      q2.insert({info.changed_server.value, info.q2_changed_state});
    }
    if (!check) return;
    // The executable Theorem 4.1 inequality, as verify_pair_injectivity
    // states it.
    double certificate =
        q2.empty() ? 0 : std::log2(static_cast<double>(q2.size()));
    for (const auto& [id, states] : q1)
      certificate += std::log2(static_cast<double>(states.size()));
    const double bound = std::log2(static_cast<double>(order.size()));
    const bool injective = signatures.size() == order.size();
    const bool holds = certificate + 1e-9 >= bound;
    r_.check(all_ok && injective && holds && !opt_.wrong_reference,
             c.name + ": pairs=" + std::to_string(order.size()) +
                 " distinct=" + std::to_string(signatures.size()) +
                 " certificate=" + std::to_string(certificate) +
                 " bound=" + std::to_string(bound) +
                 (all_ok ? "" : " (a critical pair was missing)"));
  }

  void run_staged(const StagedCase& c, Rng& rng, Pass& out, bool check) {
    const std::size_t value_size = c.factory().value_size;
    const std::vector<std::uint64_t> idx = value_indices(rng, c.domain);
    std::vector<std::vector<std::size_t>> tuples;
    std::vector<std::size_t> cur;
    const auto recurse = [&](auto&& self) -> void {
      if (cur.size() == c.nu) {
        tuples.push_back(cur);
        return;
      }
      for (std::size_t v = 0; v < c.domain; ++v) {
        if (std::find(cur.begin(), cur.end(), v) != cur.end()) continue;
        cur.push_back(v);
        self(self);
        cur.pop_back();
      }
    };
    recurse(recurse);
    shuffle(tuples, rng);

    bool all_ok = true;
    std::set<Bytes> signatures;
    for (const auto& t : tuples) {
      std::vector<Value> values;
      for (const std::size_t v : t) values.push_back(enum_value(idx[v], value_size));
      const Clock::time_point t0 = Clock::now();
      StagedExecution ex;
      {
        Span s(Layer::kStaged);
        ex = run_staged_execution(c.factory, values);
      }
      const double dt = seconds_since(t0);
      out.harness_s += dt;
      out.execution_s.push_back(dt);
      ++out.executions;
      all_ok &= ex.parked && ex.completed;
      for (std::size_t j = 1; j < ex.a.size(); ++j)
        all_ok &= ex.a[j] >= ex.a[j - 1];
      if (ex.completed) signatures.insert(ex.signature);
    }
    if (!check) return;
    r_.check(all_ok && signatures.size() == tuples.size() &&
                 !opt_.wrong_reference,
             c.name + ": tuples=" + std::to_string(tuples.size()) +
                 " distinct=" + std::to_string(signatures.size()) +
                 (all_ok ? "" : " (a stage did not complete)"));
  }

  const Options& opt_;
  Result& r_;
  std::vector<std::string> reference_;
  std::vector<PairCase> pairs_;
  std::vector<StagedCase> staged_;
};

// The pair's quiesced point P0 (last f crashed, v1 written to quiescence)
// under the proofs' round-robin schedule, as find_critical_pair builds it.
std::optional<Sut> quiesced_point(const SutFactory& factory, const Value& v1) {
  Sut sut = factory();
  for (std::size_t i = sut.servers.size() - sut.f; i < sut.servers.size(); ++i)
    sut.world.crash(sut.servers[i]);
  sut.world.invoke(sut.writer, Invocation{OpType::kWrite, v1});
  Scheduler sched;
  engine::ExecutionDriver& driver = sched;
  if (!driver.run_until_responses(sut.world, 1, 200'000) ||
      !driver.drain(sut.world, 200'000))
    return std::nullopt;
  return sut;
}

}  // namespace

Result run_prove(const Options& opt) {
  Result r;
  Prover prover(opt, r, reference_rows(opt.fig1_csv));

  // Set-up: one smoke-size warm-up pass, which builds every
  // system-under-test, five times; the median is setup_s.
  Calibrator cal;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Options warm_opt = opt;
    warm_opt.size = Size::kSmoke;
    Result scratch;
    Prover warm(warm_opt, scratch, {});
    warm.run(1'000'000 + static_cast<std::uint64_t>(rep), false);
    const double raw = seconds_since(t0);
    setup_s.push_back(raw * cal.factor());
  }
  r.set("setup_s", median(setup_s), "s");

  if (!opt.trace) {
    std::vector<double> exec_rates, cell_rates, execution_s;
    std::size_t passes = 0, executions = 0;
    const Clock::time_point start = Clock::now();
    do {
      const Pass p = prover.run(passes++, true);
      const double f = cal.factor();
      exec_rates.push_back(static_cast<double>(p.executions) /
                           (p.harness_s * f));
      cell_rates.push_back(static_cast<double>(p.cells) / (p.sweep_s * f));
      for (const double s : p.execution_s) execution_s.push_back(s * f);
      executions += p.executions;
    } while (seconds_since(start) < opt.seconds);
    r.set("work_per_s", median(exec_rates), "1/s");
    r.set("aux_per_s", median(cell_rates), "1/s");
    r.set("p50_ms", 1e3 * median(execution_s), "ms");
    r.set("p90_ms", 1e3 * quantile(execution_s, 0.9), "ms");
    r.set("peak_rss_mb", peak_rss_mb(cal), "MB");
    r.notes.push_back("pairs_per_s = " + std::to_string(median(exec_rates)) +
                      " 1/s (median of " + std::to_string(passes) +
                      " passes, " + std::to_string(executions) +
                      " pair and tuple executions, at reference speed; "
                      "median burst " +
                      std::to_string(median(cal.bursts_ms())) + " ms)");
    r.notes.push_back("cells_per_s = " + std::to_string(median(cell_rates)) +
                      " 1/s");
    r.notes.push_back("setup_s = " + std::to_string(median(setup_s)) + " s");
    r.notes.push_back("peak_rss_mb = " + std::to_string(peak_rss_mb(cal)) + " MB");
    return r;
  }

  // Traced: one untraced pass, the same pass with spans, then the direct
  // calls into the layers the pass reaches only inside the library.
  Tracer& tracer = *Tracer::active();
  Tracer::activate(nullptr);
  const cowstats::Snapshot c0 = cowstats::snapshot();
  const Pass plain = prover.run(0, true);
  const cowstats::Snapshot cow = cowstats::snapshot() - c0;
  const double untraced_s = plain.harness_s + plain.sweep_s;

  Tracer::activate(&tracer);
  tracer.reset_stats();
  tracer.begin_run();
  const Clock::time_point l0 = Clock::now();
  {
    Span run(Layer::kRun);
    prover.run(0, false);
  }
  const double traced_s = seconds_since(l0);

  // probe_read at each pair case's quiesced point: the solo read must
  // return the value written there.
  Rng rng(derive(opt.seed, 2000));
  for (const PairCase& c : prover.pair_cases_list()) {
    const std::size_t value_size = c.factory().value_size;
    for (const std::uint64_t i : value_indices(rng, c.domain)) {
      const Value v1 = enum_value(i, value_size);
      std::optional<Sut> sut = quiesced_point(c.factory, v1);
      std::optional<Value> got;
      if (sut.has_value()) {
        ProbeOptions probe;
        probe.flush_gossip = c.gossip_variant;
        Span s(Layer::kProbeRead);
        got = probe_read(sut->world, sut->writer, sut->reader, probe);
      }
      r.check(got.has_value() && *got == v1,
              c.name + ": probe_read at the quiesced point did not return "
                       "the written value");
    }
  }
  // The codec at the CAS case shapes (RS(N, k=3), 18-byte values).
  for (const std::size_t n : {5u, 7u}) {
    const CodecPtr codec = make_rs_codec(n, 3);
    for (int rep = 0; rep < 256; ++rep) {
      Bytes v(18);
      for (auto& b : v) b = rng.next_byte();
      std::vector<Bytes> shards;
      {
        Span s(Layer::kCodecEncode);
        shards = codec->encode(v);
      }
      std::vector<std::pair<std::size_t, Bytes>> some;
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t at = (static_cast<std::size_t>(rep) + 2 * k) % n;
        some.emplace_back(at, shards[at]);
      }
      std::optional<Bytes> back;
      {
        Span s(Layer::kCodecDecode);
        back = codec->decode(some, v.size());
      }
      r.check(back.has_value() && *back == v,
              "RS(" + std::to_string(n) + ",3) decode did not return the "
                                          "encoded value");
    }
  }
  // Per-cell bound and measurement evaluation of the Figure 1 grid.
  const sweep::GridSpec grid = sweep::figure1_grid();
  for (std::size_t i = 0; i < grid.cells(); ++i) {
    const sweep::Cell cell = grid.cell(i);
    Span b(Layer::kBoundsEval);
    sweep::evaluate_bounds(cell);
  }
  for (std::size_t i = 0; i < grid.cells(); ++i) {
    const sweep::Cell cell = grid.cell(i);
    Span m(Layer::kSweepMeasured);
    sweep::evaluate_measured(cell);
  }
  Tracer::activate(nullptr);

  for (const auto& [layer, name] :
       std::vector<std::pair<Layer, const char*>>{
           {Layer::kCriticalPair, "adversary.critical_pair"},
           {Layer::kStaged, "adversary.staged"},
           {Layer::kProbeRead, "adversary.probe_read"},
           {Layer::kCodecEncode, "codec.encode"},
           {Layer::kCodecDecode, "codec.decode"},
           {Layer::kBoundsEval, "bounds.eval"},
           {Layer::kSweepMeasured, "sweep.measured"}})
    report_layer(r, tracer, layer, name, untraced_s);
  const std::uint64_t lookups = plain.stats.memo_hits + plain.stats.memo_misses;
  r.set("sweep.memo.hit_ratio",
        lookups > 0 ? static_cast<double>(plain.stats.memo_hits) /
                          static_cast<double>(lookups)
                    : 0,
        "ratio");
  r.set("adversary.forks_per_pair",
        plain.executions > 0 ? static_cast<double>(cow.world_copies) /
                                   static_cast<double>(plain.executions)
                             : 0,
        "count");
  r.set("trace.untraced_s", untraced_s, "s");
  r.set("trace.traced_s", traced_s, "s");
  r.set("trace.overhead_s", traced_s - untraced_s, "s");
  r.set("trace.overhead_share",
        untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0, "ratio");
  r.notes.push_back("pass: " + std::to_string(plain.executions) +
                    " executions + " + std::to_string(plain.cells) +
                    " cells in " + std::to_string(untraced_s) +
                    " s untraced, " + std::to_string(traced_s) + " s traced");
  return r;
}

}  // namespace perfbench
