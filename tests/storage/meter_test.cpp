#include "storage/meter.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/process.h"
#include "sim/world.h"

namespace memu {
namespace {

// Server whose storage footprint is set directly by the test — lets a test
// script the exact sequence of (value_bits, metadata_bits) points the meter
// observes.
class SpikeServer final : public CloneableProcess<SpikeServer> {
 public:
  void set_bits(double value, double metadata) { bits_ = {value, metadata}; }

  void on_message(Context&, NodeId, const MessagePayload&) override {}
  StateBits state_size() const override { return bits_; }
  void encode_state(BufWriter&) const override {}
  std::string name() const override { return "test.spike_server"; }
  bool is_server() const override { return true; }

 private:
  StateBits bits_;
};

SpikeServer& spike(World& w, NodeId id) {
  return dynamic_cast<SpikeServer&>(w.process(id));
}

// Regression for the argmax-by-total bug: a metadata spike that dominates
// total() at a point where value bits are LOW must not displace the
// value-bit supremum. Old accounting reported value_bits at the total()
// argmax (8 here); the value-bit sup over points is 96.
TEST(StorageMeter, ValueBitPeakSurvivesLaterMetadataSpike) {
  World w;
  const NodeId s = w.add_process(std::make_unique<SpikeServer>());
  StorageMeter meter;

  spike(w, s).set_bits(96, 0);  // value-bit peak: total 96
  meter.observe(w);
  spike(w, s).set_bits(8, 960);  // metadata spike: total 968, value 8
  meter.observe(w);

  const StorageReport& rep = meter.report();
  // The total-bits argmax is the metadata-spike point...
  EXPECT_DOUBLE_EQ(rep.peak_total.total(), 968);
  EXPECT_DOUBLE_EQ(rep.peak_total.value_bits, 8);
  // ...but the value-bit supremum is tracked independently.
  EXPECT_DOUBLE_EQ(rep.peak_total_value_bits, 96);
  EXPECT_DOUBLE_EQ(rep.peak_max_value_bits, 96);
  // Figure 1's normalized measures report the sup of value bits, not the
  // value bits at the sup of total.
  const double B = 8;
  EXPECT_DOUBLE_EQ(rep.normalized_peak_total(B), 96 / B);
  EXPECT_DOUBLE_EQ(rep.normalized_peak_max(B), 96 / B);
  EXPECT_DOUBLE_EQ(rep.normalized_peak_total_with_metadata(B), 968 / B);
}

// Within ONE observation, the per-server value-bit max must scan value bits
// directly: the server with the largest total() (metadata-heavy) is not the
// server with the most value bits.
TEST(StorageMeter, PerServerValueMaxIgnoresMetadataHeavyServer) {
  World w;
  const NodeId a = w.add_process(std::make_unique<SpikeServer>());
  const NodeId b = w.add_process(std::make_unique<SpikeServer>());
  spike(w, a).set_bits(10, 100);  // total()-argmax server: 110 total
  spike(w, b).set_bits(50, 0);    // value-bit argmax server

  StorageMeter meter;
  meter.observe(w);

  const StorageReport& rep = meter.report();
  EXPECT_DOUBLE_EQ(rep.peak_max_server.total(), 110);
  EXPECT_DOUBLE_EQ(rep.peak_max_server.value_bits, 10);
  EXPECT_DOUBLE_EQ(rep.peak_max_value_bits, 50);
  EXPECT_DOUBLE_EQ(w.server_storage().max_value_bits, 50);
}

// Crashed servers stop counting toward every measure, including the
// value-bit suprema's per-point scans.
TEST(StorageMeter, CrashedServersExcludedFromValueMax) {
  World w;
  const NodeId a = w.add_process(std::make_unique<SpikeServer>());
  const NodeId b = w.add_process(std::make_unique<SpikeServer>());
  spike(w, a).set_bits(100, 0);
  spike(w, b).set_bits(40, 0);
  w.crash(a);

  StorageMeter meter;
  meter.observe(w);

  const StorageReport& rep = meter.report();
  EXPECT_DOUBLE_EQ(rep.peak_total_value_bits, 40);
  EXPECT_DOUBLE_EQ(rep.peak_max_value_bits, 40);
}

// When value and total peak at the same point (the common case for the
// repo's register algorithms), the independent argmaxes agree with the
// old accounting — no behavior change for well-behaved workloads.
TEST(StorageMeter, CoincidingPeaksMatchArgmaxByTotal) {
  World w;
  const NodeId s = w.add_process(std::make_unique<SpikeServer>());
  StorageMeter meter;

  spike(w, s).set_bits(32, 4);
  meter.observe(w);
  spike(w, s).set_bits(64, 8);
  meter.observe(w);
  spike(w, s).set_bits(16, 2);
  meter.observe(w);

  const StorageReport& rep = meter.report();
  EXPECT_DOUBLE_EQ(rep.peak_total.value_bits, 64);
  EXPECT_DOUBLE_EQ(rep.peak_total_value_bits, 64);
  EXPECT_DOUBLE_EQ(rep.peak_max_value_bits, 64);
  EXPECT_DOUBLE_EQ(rep.final_total.value_bits, 16);
  EXPECT_EQ(rep.observations, 3u);
}

}  // namespace
}  // namespace memu
