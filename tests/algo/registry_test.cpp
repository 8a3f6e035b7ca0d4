// The algorithm registry builds exactly what each family's make_system
// builds from hand-filled Options, and rejects names and writer counts it
// cannot honour with an error that lists the choices.
#include "algo/registry.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/check.h"
#include "workload/driver.h"

namespace memu::algo {
namespace {

constexpr std::size_t kN = 7, kF = 2, kReaders = 3, kValueSize = 30;

// `Options` with the shape every case shares filled in by hand.
template <class Options>
Options shaped(std::size_t writers) {
  Options o;
  o.n_servers = kN;
  o.f = kF;
  o.n_readers = kReaders;
  o.value_size = kValueSize;
  if constexpr (requires { o.n_writers; }) o.n_writers = writers;
  if constexpr (requires { o.k; }) o.k = 0;
  return o;
}

// A deployment's state hash as built, and again after a short seeded
// workload: variants that start alike (abd and abd-regular) part ways once
// operations run.
using Hashes = std::pair<std::uint64_t, std::uint64_t>;
Hashes hashes(World& w, const std::vector<NodeId>& writers,
              const std::vector<NodeId>& readers) {
  const std::uint64_t built = w.state_hash();
  workload::Options o;
  o.writes_per_writer = 2;
  o.reads_per_reader = 2;
  o.value_size = kValueSize;
  o.seed = 5;
  workload::run(w, writers, readers, o);
  return {built, w.state_hash()};
}

// Hashes of every registry name's deployment, built by hand.
std::map<std::string, Hashes> by_hand() {
  abd::Options swmr = shaped<abd::Options>(1);
  swmr.single_writer = true;
  abd::Options regular = shaped<abd::Options>(2);
  regular.read_write_back = false;
  cas::Options gc = shaped<cas::Options>(2);
  gc.delta = 2;
  cas::Options hash = shaped<cas::Options>(2);
  hash.hash_phase = true;
  const auto h = [](auto sys) {
    if constexpr (requires { sys.writers; }) {
      return hashes(sys.world, sys.writers, sys.readers);
    } else {
      return hashes(sys.world, {sys.writer}, sys.readers);  // gossip
    }
  };
  return {
      {"abd", h(abd::make_system(shaped<abd::Options>(2)))},
      {"abd-swmr", h(abd::make_system(swmr))},
      {"abd-regular", h(abd::make_system(regular))},
      {"cas", h(cas::make_system(shaped<cas::Options>(2)))},
      {"casgc", h(cas::make_system(gc))},
      {"cas-hash", h(cas::make_system(hash))},
      {"gossip", h(gossip::make_system(shaped<gossip::Options>(1)))},
      {"ldr", h(ldr::make_system(shaped<ldr::Options>(2)))},
      {"strip", h(strip::make_system(shaped<strip::Options>(2)))},
  };
}

TEST(Registry, EveryNameBuildsWhatMakeSystemBuilds) {
  const auto want = by_hand();
  ASSERT_EQ(algorithms().size(), want.size());
  std::set<std::uint64_t> distinct;
  for (const auto& [name, h] : want) distinct.insert(h.second);
  ASSERT_EQ(distinct.size(), want.size()) << "two variants hash alike";
  for (const Algorithm& a : algorithms()) {
    const std::string name(a.name);
    ASSERT_TRUE(want.contains(name)) << name;
    const std::size_t writers = a.multi_writer ? 2 : 1;
    Deployment d = build({.name = name,
                                .n = kN,
                                .f = kF,
                                .writers = writers,
                                .readers = kReaders,
                                .value_size = kValueSize,
                                .delta = 2});
    EXPECT_EQ(d.servers.size(), kN) << name;
    EXPECT_EQ(d.writers.size(), writers) << name;
    EXPECT_EQ(d.readers.size(), kReaders) << name;
    EXPECT_EQ(hashes(d.world, d.writers, d.readers), want.at(name)) << name;
  }
}

TEST(Registry, UnknownNameListsEveryName) {
  try {
    build({.name = "paxos"});
    FAIL() << "paxos was built";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'paxos'"), std::string::npos) << what;
    for (const Algorithm& a : algorithms())
      EXPECT_NE(what.find(std::string(a.name)), std::string::npos) << what;
  }
  EXPECT_THROW(lookup("ABD"), ContractError);
}

TEST(Registry, SingleWriterAlgorithmsRejectTwoWriters) {
  for (const char* name : {"gossip", "abd-swmr"}) {
    EXPECT_FALSE(lookup(name).multi_writer) << name;
    EXPECT_THROW(build({.name = name, .writers = 2}), ContractError) << name;
    EXPECT_EQ(build({.name = name, .writers = 1}).writers.size(), 1u) << name;
  }
}

TEST(Registry, PromisesNameTheCheckedProperty) {
  EXPECT_EQ(lookup("cas-hash").promise, Promise::kAtomic);
  EXPECT_EQ(lookup("abd-regular").promise, Promise::kRegular);
  EXPECT_EQ(lookup("ldr").promise, Promise::kRegularSwsr);
  EXPECT_EQ(lookup("ldr").checked_writers(), 1u);
  EXPECT_EQ(lookup("abd-regular").checked_writers(), 2u);
  EXPECT_EQ(lookup("gossip").checked_writers(), 1u);
}

}  // namespace
}  // namespace memu::algo
