#include "sweep/measure.h"

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "engine/scheduler.h"
#include "workload/driver.h"
#include "workload/park.h"

namespace memu::sweep {

namespace {

constexpr std::uint64_t kDrainCap = 1'000'000;

double bits(std::size_t value_size) { return 8.0 * static_cast<double>(value_size); }

// Runs `writes` sequential writes through a single writer and drains the
// world to quiescence; returns the value bits then resident on servers.
template <class System>
double steady_state(System& sys, std::size_t writes, std::size_t value_size) {
  workload::Options wopt;
  wopt.writes_per_writer = writes;
  wopt.reads_per_reader = 0;
  wopt.value_size = value_size;
  workload::run(sys.world, sys.writers, sys.readers, wopt);
  Scheduler sched;
  sched.drain(sys.world, kDrainCap);
  return sys.world.total_server_storage().value_bits / bits(value_size);
}

}  // namespace

double parked_abd(std::size_t n, std::size_t f, std::size_t nu,
                  std::size_t value_size) {
  abd::Options opt;
  opt.n_servers = n;
  opt.f = f;
  opt.n_writers = nu;
  opt.value_size = value_size;
  abd::System sys = abd::make_system(opt);
  return workload::park_active_writes(sys, nu, value_size)
      .normalized_peak_total(bits(value_size));
}

double parked_cas(std::size_t n, std::size_t f, std::size_t k, std::size_t nu,
                  std::optional<std::size_t> delta, std::size_t value_size) {
  cas::Options opt;
  opt.n_servers = n;
  opt.f = f;
  opt.k = k;
  opt.n_writers = nu;
  opt.value_size = value_size;
  opt.delta = delta;
  cas::System sys = cas::make_system(opt);
  return workload::park_active_writes(sys, nu, value_size)
      .normalized_peak_total(bits(value_size));
}

double steady_abd(std::size_t n, std::size_t f, std::size_t writes,
                  std::size_t value_size) {
  abd::Options opt;
  opt.n_servers = n;
  opt.f = f;
  opt.value_size = value_size;
  abd::System sys = abd::make_system(opt);
  return steady_state(sys, writes, value_size);
}

double steady_ldr(std::size_t n, std::size_t f, std::size_t writes,
                  std::size_t value_size) {
  ldr::Options opt;
  opt.n_servers = n;
  opt.f = f;
  opt.value_size = value_size;
  ldr::System sys = ldr::make_system(opt);
  return steady_state(sys, writes, value_size);
}

double steady_strip(std::size_t n, std::size_t f, std::size_t writes,
                    std::size_t value_size) {
  strip::Options opt;
  opt.n_servers = n;
  opt.f = f;
  opt.value_size = value_size;
  opt.delta = 0;  // keep only the newest committed version
  strip::System sys = strip::make_system(opt);
  return steady_state(sys, writes, value_size);
}

}  // namespace memu::sweep
