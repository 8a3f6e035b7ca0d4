#include "adversary/sut.h"

#include "algo/registry.h"

namespace memu::adversary {

namespace {

// The registry algorithm `spec` names, with one writer and one reader.
SutFactory sut_factory(algo::Spec spec) {
  spec.writers = 1;
  spec.readers = 1;
  return [spec] {
    algo::Deployment d = algo::build(spec);
    Sut sut;
    sut.world = std::move(d.world);
    sut.servers = std::move(d.servers);
    sut.writer = d.writers[0];
    sut.reader = d.readers[0];
    sut.f = spec.f;
    sut.value_size = spec.value_size;
    sut.algorithm = spec.name;
    return sut;
  };
}

}  // namespace

SutFactory abd_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size) {
  return sut_factory({.name = "abd", .n = n, .f = f, .value_size = value_size});
}

SutFactory abd_swmr_sut_factory(std::size_t n, std::size_t f,
                                std::size_t value_size) {
  return sut_factory(
      {.name = "abd-swmr", .n = n, .f = f, .value_size = value_size});
}

SutFactory cas_sut_factory(std::size_t n, std::size_t f, std::size_t k,
                           std::size_t value_size,
                           std::optional<std::size_t> delta) {
  return sut_factory({.name = delta.has_value() ? "casgc" : "cas",
                      .n = n,
                      .f = f,
                      .k = k,
                      .value_size = value_size,
                      .delta = delta.value_or(1)});
}

SutFactory gossip_sut_factory(std::size_t n, std::size_t f,
                              std::size_t value_size) {
  return sut_factory(
      {.name = "gossip", .n = n, .f = f, .value_size = value_size});
}

SutFactory ldr_sut_factory(std::size_t n, std::size_t f,
                           std::size_t value_size) {
  return sut_factory({.name = "ldr", .n = n, .f = f, .value_size = value_size});
}

SutFactory strip_sut_factory(std::size_t n, std::size_t f,
                             std::size_t value_size) {
  return sut_factory(
      {.name = "strip", .n = n, .f = f, .value_size = value_size});
}

Bytes live_state_vector(const World& w) {
  BufWriter out;
  for (const NodeId id : w.server_ids()) {
    if (w.is_crashed(id)) continue;
    out.u32(id.value);
    out.bytes(w.process(id).encode_state());
  }
  return std::move(out).take();
}

}  // namespace memu::adversary
