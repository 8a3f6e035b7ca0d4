#include "algo/registry.h"

#include <algorithm>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/check.h"

namespace memu::algo {

namespace {

// Moves a family System's handles into a Deployment.
template <class System>
Deployment take(System&& sys) {
  return {std::move(sys.world), std::move(sys.servers),
          std::move(sys.writers), std::move(sys.readers)};
}

}  // namespace

const std::vector<Algorithm>& algorithms() {
  using enum Family;
  using enum Promise;
  static const std::vector<Algorithm> t{
      {"abd", kAbd, kAtomic, true},
      {"abd-swmr", kAbd, kAtomic, false},
      {"abd-regular", kAbd, kRegular, true},
      {"cas", kCas, kAtomic, true},
      {"casgc", kCas, kAtomic, true},
      {"cas-hash", kCas, kAtomic, true},
      {"gossip", kGossip, kRegularSwsr, false},
      {"ldr", kLdr, kRegularSwsr, true},
      {"strip", kStrip, kAtomic, true},
  };
  return t;
}

std::string name_list() {
  std::string out;
  for (const Algorithm& a : algorithms()) {
    if (!out.empty()) out += " | ";
    out += a.name;
  }
  return out;
}

const Algorithm& lookup(std::string_view name) {
  const auto& t = algorithms();
  const auto it = std::find_if(t.begin(), t.end(), [&](const Algorithm& a) {
    return a.name == name;
  });
  MEMU_CHECK_MSG(it != t.end(),
                 "unknown algorithm '" << name << "' (want " << name_list()
                                       << ")");
  return *it;
}

Deployment build(const Spec& spec) {
  const Algorithm& a = lookup(spec.name);
  MEMU_CHECK_MSG(a.multi_writer || spec.writers <= 1,
                 spec.name << " takes one writer, not " << spec.writers);
  switch (a.family) {
    case Family::kAbd: {
      abd::Options o;
      o.n_servers = spec.n;
      o.f = spec.f;
      o.n_writers = spec.writers;
      o.n_readers = spec.readers;
      o.value_size = spec.value_size;
      // The single-writer ABD is the one-phase SWMR writer; the regular
      // one drops the read write-back.
      o.single_writer = !a.multi_writer;
      o.read_write_back = a.promise == Promise::kAtomic;
      return take(abd::make_system(o));
    }
    case Family::kCas: {
      cas::Options o;
      o.n_servers = spec.n;
      o.f = spec.f;
      o.k = spec.k;
      o.n_writers = spec.writers;
      o.n_readers = spec.readers;
      o.value_size = spec.value_size;
      if (spec.name == "casgc") o.delta = spec.delta;
      o.hash_phase = spec.name == "cas-hash";
      return take(cas::make_system(o));
    }
    case Family::kGossip: {
      gossip::Options o;
      o.n_servers = spec.n;
      o.f = spec.f;
      o.n_readers = spec.readers;
      o.value_size = spec.value_size;
      gossip::System sys = gossip::make_system(o);
      Deployment d{std::move(sys.world), std::move(sys.servers), {},
                   std::move(sys.readers)};
      if (spec.writers == 1) d.writers.push_back(sys.writer);
      return d;
    }
    case Family::kLdr: {
      ldr::Options o;
      o.n_servers = spec.n;
      o.f = spec.f;
      o.n_writers = spec.writers;
      o.n_readers = spec.readers;
      o.value_size = spec.value_size;
      return take(ldr::make_system(o));
    }
    case Family::kStrip: {
      strip::Options o;
      o.n_servers = spec.n;
      o.f = spec.f;
      o.n_writers = spec.writers;
      o.n_readers = spec.readers;
      o.value_size = spec.value_size;
      return take(strip::make_system(o));
    }
  }
  MEMU_UNREACHABLE("unknown algorithm family");
}

}  // namespace memu::algo
