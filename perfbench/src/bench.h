// Shared plumbing of the repository benchmark: the per-run result, timing
// and quantile helpers, the seed-derived generator, and the span tracer.
//
// All timing is taken here, around calls into the library's public API;
// nothing under src/ is instrumented. Untraced runs never activate a
// Tracer, so every Span is a null check.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Every input of a workload derives from (seed, purpose) through this mix,
// so one --seed fixes the whole run and distinct purposes draw independent
// streams.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  return memu::mix64(seed ^ memu::mix64(purpose + 0x5eedull));
}

// How large a run is. kFull is what the benchmark contract measures; kSmoke
// shrinks every space so the self-tests finish in seconds.
enum class Size { kFull, kSmoke };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  // Perturbs every reference value the run checks against, so the
  // self-tests can prove that a wrong output raises the failure count.
  bool wrong_reference = false;
  std::size_t threads = 1;  // worker threads the workload runs with
  // The committed Figure 1 rows prove-fig1 checks its sweep against.
  std::string fig1_csv = "bench/fig1/fig1_data.csv";
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one run reports. `attempted`/`failed` count operations: an
// exploration, a walk, a harness case or a sweep row.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Counts one operation; returns `ok` and records `why` when it failed.
  bool check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("FAILED: " + why);
    }
    return ok;
  }
};

// ---- machine speed --------------------------------------------------------

// Measures how fast the machine is running right now, so durations can be
// reported at a fixed reference speed. The machine this benchmark was tuned
// on shares its memory system with other tenants: a fixed DRAM-bound loop
// swings by +-30% over seconds while the code under test does not change.
// A burst is a fixed mix of random updates to a 32 MiB table (DRAM-bound)
// and to a 4 MiB one (last-level-cache-bound) — benchmark code, independent
// of the library, so a change to the library cannot move it. Each burst runs
// three times and keeps the fastest, so one preemption does not count.
class Calibrator {
 public:
  // A burst's duration at the reference speed: about the typical burst on
  // the 4-vCPU Xeon the benchmark was tuned on, so scaled and raw figures
  // stay comparable.
  static constexpr double kReferenceMs = 8.0;
  // The workloads slow about half as much as the burst does, in log terms:
  // over five runs of each workload in a loaded period, scaling by the
  // square root of the burst ratio left the smallest run-to-run spread
  // (explore-cas4: raw 58k-75k states/s, full ratio 93k-116k, square root
  // 79k-83k).
  static constexpr double kSensitivity = 0.5;

  Calibrator();
  // Runs a burst; returns (kReferenceMs / burst_ms)^kSensitivity, the factor
  // that scales a duration measured next to it to the reference speed.
  double factor();
  const std::vector<double>& bursts_ms() const { return bursts_ms_; }
  // Resident bytes of the tables (every page is written at construction).
  std::size_t bytes() const {
    return (dram_.size() + cache_.size()) * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> dram_, cache_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t sink_ = 0;
  std::vector<double> bursts_ms_;
};

// ---- tracing --------------------------------------------------------------

// The layer boundaries the benchmark times. Names are the per-layer metric
// prefixes in BENCHMARK.json.
enum class Layer : std::uint8_t {
  kRun,  // one traced phase (a whole ladder walk, campaign or pass)
  kSimFork,
  kSimDeliver,
  kSimStateHash,
  kSimSuccessors,
  kSimRelease,
  kVisitedInsert,
  kHistory,
  kCheck,
  kFuzzWalk,
  kFuzzInject,
  kFuzzMinimize,
  kCriticalPair,
  kProbeRead,
  kStaged,
  kCodecEncode,
  kCodecDecode,
  kSweepMeasured,
  kBoundsEval,
  kCount
};

const char* layer_name(Layer l);

struct LayerStat {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;  // time covered by spans nested inside
};

// Records spans in memory and writes them out once, at exit. Every span
// updates its layer's aggregate; the span record itself is kept for the
// first kKeepFirst calls of a layer and every kKeepEvery-th after, so a
// ladder walk of ten million calls keeps a bounded, evenly spread sample.
class Tracer {
 public:
  static constexpr std::uint64_t kKeepFirst = 1000;
  static constexpr std::uint64_t kKeepEvery = 1024;

  struct Record {
    Layer layer;
    std::uint64_t id, parent, run;  // parent 0 = root
    std::int64_t start_ns, end_ns;  // since the tracer's epoch
  };

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer spans report to; nullptr when the run is untraced.
  static Tracer* active() { return active_; }
  static void activate(Tracer* t) { active_ = t; }

  void begin_run() { ++run_; }
  const LayerStat& stat(Layer l) const {
    return stats_[static_cast<std::size_t>(l)];
  }
  // A layer's self time: its spans' durations minus the part their child
  // spans cover, less the calibrated cost an empty span measures, so that
  // ten million calls of a 200 ns layer are not inflated by the clock.
  std::int64_t self_ns(Layer l) const;
  std::int64_t layers_self_ns() const;  // every layer except kRun
  void reset_stats() { stats_ = {}; }
  // Measures span_floor_ns: the mean duration an empty span records.
  void calibrate();

  // JSON: the layer aggregates plus the sampled span records.
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  friend class Span;
  Clock::time_point epoch_;
  std::uint64_t run_ = 0;
  std::uint64_t next_id_ = 1;
  double span_floor_ns_ = 0;
  std::array<LayerStat, static_cast<std::size_t>(Layer::kCount)> stats_{};
  std::vector<Record> records_;
  static inline Tracer* active_ = nullptr;
};

// Times one call into a layer. Single-threaded by design: the traced
// phases run on the calling thread only, and nesting is tracked through a
// thread-local stack of open spans.
class Span {
 public:
  explicit Span(Layer layer) : tracer_(Tracer::active()) {
    if (tracer_ == nullptr) return;
    layer_ = layer;
    parent_ = open_;
    open_ = this;
    id_ = tracer_->next_id_++;
    start_ = Clock::now();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    const Clock::time_point end = Clock::now();
    const std::int64_t ns = ns_between(start_, end);
    LayerStat& s = tracer_->stats_[static_cast<std::size_t>(layer_)];
    const std::uint64_t call = s.calls++;
    s.total_ns += ns;
    if (parent_ != nullptr)
      tracer_->stats_[static_cast<std::size_t>(parent_->layer_)].child_ns += ns;
    open_ = parent_;
    if (call < Tracer::kKeepFirst || call % Tracer::kKeepEvery == 0) {
      tracer_->records_.push_back(
          {layer_, id_, parent_ != nullptr ? parent_->id_ : 0, tracer_->run_,
           ns_between(tracer_->epoch_, start_),
           ns_between(tracer_->epoch_, end)});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_ = Layer::kRun;
  Span* parent_ = nullptr;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
  static inline thread_local Span* open_ = nullptr;
};

// Per-layer metrics of a traced run: `<prefix>.calls`, `<prefix>.ns` (mean
// self time per call) and `<prefix>.share` (self time over `wall_s`, the
// untraced wall time of the same work).
void report_layer(Result& r, const Tracer& t, Layer l, const std::string& prefix,
                  double wall_s);

// Peak resident set of this process, in MB, less the calibration tables
// (which every run holds for its whole life).
double peak_rss_mb(const Calibrator& cal);

// ---- workloads ------------------------------------------------------------

Result run_explore(const Options& opt);
Result run_fuzz(const Options& opt);
Result run_prove(const Options& opt);

// Every per-layer metric a traced run reports, with its unit. A workload
// that does not exercise a layer reports it as 0 — the prediction for that
// workload is "no movement".
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
