// Storage meters: track the paper's cost measures over an execution.
//
// TotalStorage / MaxStorage are worst-case (supremum over execution points)
// measures; the meter observes the World after every step and keeps peaks,
// split into value bits (multiples of B or B/k) and metadata bits (the
// o(log|V|) part).
//
// The value-bit supremum and the total-bit supremum are tracked with
// SEPARATE argmaxes. They can peak at different execution points (and the
// per-server max can peak at a different server): a metadata spike — e.g. a
// server briefly holding many o(log|V|) tags — can dominate total() at a
// point where value bits are low, so reporting value_bits at the total()
// argmax under-reports the value-bit supremum that Figure 1 plots.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "sim/world.h"

namespace memu {

struct StorageReport {
  // States at the TOTAL-bits argmax points (value + metadata breakdown of
  // the point where total() peaked). Use the *_value_bits fields below for
  // the value-bit suprema — the argmaxes can differ.
  StateBits peak_total;       // max over points of sum over servers
  StateBits peak_max_server;  // max over points of max over servers

  // Independent suprema of the value-bit measures (the paper's storage
  // cost, Figure 1's y-axis, is in multiples of B = log2|V| value bits).
  double peak_total_value_bits = 0;  // sup over points of sum of value bits
  double peak_max_value_bits = 0;    // sup over points of per-server max

  StateBits final_total;  // at the last observed point
  std::uint64_t observations = 0;

  // Normalized by B = log2|V| (the y-axis of Figure 1). These report the
  // sup of value bits, NOT the value bits at the sup of total.
  double normalized_peak_total(double log2_v) const {
    return peak_total_value_bits / log2_v;
  }
  double normalized_peak_max(double log2_v) const {
    return peak_max_value_bits / log2_v;
  }
  // Including metadata (shows the o(log|V|) gap).
  double normalized_peak_total_with_metadata(double log2_v) const {
    return peak_total.total() / log2_v;
  }
};

class StorageMeter {
 public:
  void observe(const World& w) {
    const ServerStorage now = w.server_storage();
    if (now.total.total() > report_.peak_total.total())
      report_.peak_total = now.total;
    if (now.max.total() > report_.peak_max_server.total())
      report_.peak_max_server = now.max;
    if (now.total.value_bits > report_.peak_total_value_bits)
      report_.peak_total_value_bits = now.total.value_bits;
    // The value-bit argmax server may not be the total() argmax server.
    if (now.max_value_bits > report_.peak_max_value_bits)
      report_.peak_max_value_bits = now.max_value_bits;
    report_.final_total = now.total;
    ++report_.observations;
  }

  const StorageReport& report() const { return report_; }

 private:
  StorageReport report_;
};

}  // namespace memu
