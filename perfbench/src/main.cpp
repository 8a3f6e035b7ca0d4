// memu_perfbench: the repository benchmark.
//
//   memu_perfbench --workload <explore-cas4|explore-par|fuzz-faults|prove-fig1>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>] [--fig1-csv <file>] [--commit <id>]
//                  [--smoke] [--wrong-reference]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
// the per-layer metrics, and with --trace-out it writes the recorded spans.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. A run whose outputs
// fail a check still prints that line, with correct=false, and exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Calibrator::Calibrator() : dram_(std::size_t{1} << 22), cache_(std::size_t{1} << 19) {}

double Calibrator::factor() {
  const auto run = [this](std::vector<std::uint64_t>& table, int iters) {
    const std::uint64_t mask = table.size() - 1;
    for (int i = 0; i < iters; ++i) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      std::uint64_t& slot = table[x_ & mask];
      slot += x_;
      sink_ += slot;
    }
  };
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    run(dram_, 70'000);
    run(cache_, 200'000);
    const double ms = 1e3 * seconds_since(t0);
    best = rep == 0 ? ms : std::min(best, ms);
  }
  bursts_ms_.push_back(3 * best);
  return std::pow(kReferenceMs / (3 * best), kSensitivity);
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRun: return "run";
    case Layer::kSimFork: return "sim.fork";
    case Layer::kSimDeliver: return "sim.deliver";
    case Layer::kSimStateHash: return "sim.state_hash";
    case Layer::kSimSuccessors: return "sim.successors";
    case Layer::kSimRelease: return "sim.release";
    case Layer::kVisitedInsert: return "engine.visited.insert";
    case Layer::kHistory: return "consistency.history";
    case Layer::kCheck: return "consistency.check";
    case Layer::kFuzzWalk: return "fuzz.walk";
    case Layer::kFuzzInject: return "fuzz.inject";
    case Layer::kFuzzMinimize: return "fuzz.minimize";
    case Layer::kCriticalPair: return "adversary.critical_pair";
    case Layer::kProbeRead: return "adversary.probe_read";
    case Layer::kStaged: return "adversary.staged";
    case Layer::kCodecEncode: return "codec.encode";
    case Layer::kCodecDecode: return "codec.decode";
    case Layer::kSweepMeasured: return "sweep.measured";
    case Layer::kBoundsEval: return "bounds.eval";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t Tracer::self_ns(Layer l) const {
  const LayerStat& s = stat(l);
  const auto floor =
      static_cast<std::int64_t>(span_floor_ns_ * static_cast<double>(s.calls));
  return std::max<std::int64_t>(0, s.total_ns - s.child_ns - floor);
}

std::int64_t Tracer::layers_self_ns() const {
  std::int64_t sum = 0;
  for (std::size_t i = 1; i < stats_.size(); ++i)
    sum += self_ns(static_cast<Layer>(i));
  return sum;
}

void Tracer::calibrate() {
  constexpr int kSpans = 200'000;
  Tracer probe;
  Tracer* const previous = active();
  activate(&probe);
  for (int i = 0; i < kSpans; ++i) Span s(Layer::kRun);
  activate(previous);
  span_floor_ns_ = static_cast<double>(probe.stat(Layer::kRun).total_ns) /
                   static_cast<double>(kSpans);
}

bool Tracer::write(const std::string& path,
                   const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\": " << header_json
      << ",\n\"span_floor_ns\": " << span_floor_ns_ << ",\n\"layers\": {";
  bool first = true;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const LayerStat& s = stats_[i];
    if (s.calls == 0) continue;
    out << (first ? "\n" : ",\n") << "  \""
        << layer_name(static_cast<Layer>(i)) << "\": {\"calls\": " << s.calls
        << ", \"total_ns\": " << s.total_ns
        << ", \"self_ns\": " << self_ns(static_cast<Layer>(i)) << "}";
    first = false;
  }
  out << "},\n\"spans\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << layer_name(r.layer)
        << "\", \"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"run\": " << r.run << ", \"start_ns\": " << r.start_ns
        << ", \"end_ns\": " << r.end_ns << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void report_layer(Result& r, const Tracer& t, Layer l,
                  const std::string& prefix, double wall_s) {
  const LayerStat& s = t.stat(l);
  const auto self = static_cast<double>(t.self_ns(l));
  r.set(prefix + ".calls", static_cast<double>(s.calls), "count");
  r.set(prefix + ".ns", s.calls > 0 ? self / static_cast<double>(s.calls) : 0,
        "ns");
  r.set(prefix + ".share", wall_s > 0 ? self * 1e-9 / wall_s : 0, "ratio");
}

double peak_rss_mb(const Calibrator& cal) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is in KiB.
  return (static_cast<double>(ru.ru_maxrss) * 1024.0 -
          static_cast<double>(cal.bytes())) /
         (1024.0 * 1024.0);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> v;
    const auto timed = [&v](const std::string& p) {
      v.emplace_back(p + ".calls", "count");
      v.emplace_back(p + ".ns", "ns");
      v.emplace_back(p + ".share", "ratio");
    };
    for (const char* p :
         {"sim.fork", "sim.deliver", "sim.state_hash", "sim.successors",
          "sim.release", "engine.visited.insert", "consistency.history",
          "consistency.check", "fuzz.walk", "fuzz.inject",
          "adversary.critical_pair", "adversary.probe_read",
          "adversary.staged", "codec.encode", "codec.decode",
          "sweep.measured", "bounds.eval"})
      timed(p);
    v.insert(v.end(),
             {{"sim.cow_bytes_per_state", "B"},
              {"sim.slab_bytes", "B"},
              {"engine.visited.fresh_ratio", "ratio"},
              {"engine.visited.bytes", "B"},
              {"engine.frontier.bytes", "B"},
              {"engine.unexplained_share", "ratio"},
              {"engine.pool.steal_batches", "count"},
              {"engine.pool.tasks_stolen", "count"},
              {"engine.pool.imbalance", "ratio"},
              {"engine.pool.speedup_x", "x"},
              {"ladder.states", "count"},
              {"ladder.terminals", "count"},
              {"fuzz.walk.steps", "count"},
              {"fuzz.walk.injected", "count"},
              {"fuzz.system.builds", "count"},
              {"fuzz.system.reuses", "count"},
              {"fuzz.minimize.calls", "count"},
              {"fuzz.minimize.probes", "count"},
              {"fuzz.minimize.probe_ns", "ns"},
              {"adversary.forks_per_pair", "count"},
              {"sweep.memo.hit_ratio", "ratio"},
              {"trace.untraced_s", "s"},
              {"trace.traced_s", "s"},
              {"trace.overhead_s", "s"},
              {"trace.overhead_share", "ratio"}});
    return v;
  }();
  return list;
}

namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"setup_s", "s"},     {"work_per_s", "1/s"}, {"aux_per_s", "1/s"},
      {"p50_ms", "ms"},     {"p90_ms", "ms"},      {"peak_rss_mb", "MB"}};
  return list;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "memu_perfbench: " << why
            << "\nusage: memu_perfbench --workload "
               "<explore-cas4|explore-par|fuzz-faults|prove-fig1> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--fig1-csv <file>] [--commit <id>] [--smoke] "
               "[--wrong-reference]\n";
  std::exit(2);
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::thread::hardware_concurrency();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::cerr << "memu_perfbench: built without optimization (build type "
            << PERFBENCH_BUILD_TYPE
            << "); timings from it are meaningless. Build Release.\n";
  return 2;
#endif
  Options opt;
  std::string trace_out;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        trace_out = value();
      } else if (a == "--fig1-csv") {
        opt.fig1_csv = value();
      } else if (a == "--commit") {
        commit = value();
      } else if (a == "--smoke") {
        opt.size = Size::kSmoke;
      } else if (a == "--wrong-reference") {
        opt.wrong_reference = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + a);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");

  const std::size_t nproc = cpu_count();
  if (opt.workload == "explore-par") {
    opt.threads = 4;
    if (nproc < opt.threads) {
      std::cerr << "memu_perfbench: explore-par runs 4 workers but this "
                   "machine offers "
                << nproc << " CPU(s); refusing to measure an oversubscribed "
                            "pool.\n";
      return 2;
    }
  } else if (opt.workload != "explore-cas4" && opt.workload != "fuzz-faults" &&
             opt.workload != "prove-fig1") {
    usage("unknown workload " + opt.workload);
  }

  std::ostringstream machine;
  machine << "{\"workload\": " << json_string(opt.workload)
          << ", \"seed\": " << opt.seed
          << ", \"seconds\": " << json_number(opt.seconds)
          << ", \"trace\": " << (opt.trace ? 1 : 0)
          << ", \"smoke\": " << (opt.size == Size::kSmoke ? "true" : "false")
          << ", \"nproc\": " << nproc
          << ", \"threads\": " << opt.threads
          << ", \"compiler\": " << json_string(__VERSION__)
          << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
          << ", \"commit\": " << json_string(commit) << "}";
  std::cout << "machine " << machine.str() << '\n' << std::flush;

  Tracer tracer;
  if (opt.trace) {
    tracer.calibrate();
    Tracer::activate(&tracer);
  }
  Result result;
  try {
    if (opt.workload == "fuzz-faults") {
      result = run_fuzz(opt);
    } else if (opt.workload == "prove-fig1") {
      result = run_prove(opt);
    } else {
      result = run_explore(opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "memu_perfbench: " << opt.workload << " aborted: " << e.what()
              << '\n';
    return 3;
  }
  Tracer::activate(nullptr);

  // The contract's metric set: every end-to-end metric untraced, every
  // per-layer metric traced. A workload that does not touch a layer
  // reports it as 0.
  const auto& names = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, Metric> out;
  for (const auto& [name, unit] : names) {
    const auto it = result.metrics.find(name);
    out[name] = it != result.metrics.end() ? it->second : Metric{0, unit};
    if (out[name].unit != unit) {
      std::cerr << "memu_perfbench: metric " << name << " reported in "
                << out[name].unit << ", declared in " << unit << '\n';
      return 3;
    }
  }
  if (!opt.trace) {
    for (const auto& [name, m] : out) {
      if (!(m.value > 0) || !std::isfinite(m.value))
        result.check(false, "end-to-end metric " + name + " is " +
                                json_number(m.value) + ", not positive");
    }
  }
  if (opt.trace && !trace_out.empty() &&
      !tracer.write(trace_out, machine.str())) {
    std::cerr << "memu_perfbench: cannot write " << trace_out << '\n';
    return 3;
  }

  for (const std::string& line : result.notes) std::cout << line << '\n';
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::cout << "fail_rate = "
            << json_number(result.attempted > 0
                               ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 1)
            << " (" << result.failed << " of " << result.attempted
            << " operations)\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
