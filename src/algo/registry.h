// The one name -> deployment table.
//
// Every caller that turns an algorithm name into a running system — the
// `memu` CLI, the fuzzer's SystemSpec, the adversary SUT factories and the
// conformance test — goes through build(). A Spec carries only what those
// callers vary; everything else keeps the per-algorithm Options defaults.
// The names: abd, abd-swmr (one-phase SWMR writer), abd-regular (reads skip
// the write-back), cas, casgc (keeps delta + 1 versions), cas-hash (hash
// announce before the pre-write), gossip, ldr and strip.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/world.h"

namespace memu::algo {

enum class Family : std::uint8_t { kAbd, kCas, kGossip, kLdr, kStrip };

// The consistency property an algorithm promises for its histories.
enum class Promise : std::uint8_t {
  kAtomic,       // linearizable, any number of writers
  kRegular,      // regular, any number of writers
  kRegularSwsr,  // regular for single-writer histories only
};

struct Algorithm {
  std::string_view name;
  Family family;
  Promise promise;
  bool multi_writer;  // false: at most one writer

  // The writer count the promise is checked with by default: one for a
  // single-writer algorithm or a single-writer promise, else two.
  std::size_t checked_writers() const {
    return multi_writer && promise != Promise::kRegularSwsr ? 2 : 1;
  }
};

// Every registered algorithm.
const std::vector<Algorithm>& algorithms();

// "abd | abd-swmr | ... | strip", for usage and error text.
std::string name_list();

// The entry for `name`; throws ContractError listing every name otherwise.
const Algorithm& lookup(std::string_view name);

struct Spec {
  std::string name = "abd";
  std::size_t n = 5;
  std::size_t f = 2;
  std::size_t k = 0;  // CAS code dimension; 0 = max (n - 2f)
  std::size_t writers = 1;
  std::size_t readers = 1;
  std::size_t value_size = 64;  // bytes
  std::size_t delta = 1;        // CASGC garbage-collection bound (casgc only)
};

struct Deployment {
  World world;
  std::vector<NodeId> servers;
  std::vector<NodeId> writers;
  std::vector<NodeId> readers;
};

// Builds the named algorithm. Throws ContractError on an unknown name or a
// writer count the algorithm cannot honour.
Deployment build(const Spec& spec);

}  // namespace memu::algo
