// Test helper: a Probe process that forwards every delivered payload to a
// test-supplied callback (synchronously, during delivery) and keeps a trace
// of message type names. Used to unit-test servers by injecting protocol
// messages without running full client protocols.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/process.h"

namespace memu::testing {

class Probe final : public CloneableProcess<Probe> {
 public:
  using Callback = std::function<void(NodeId, const MessagePayload&)>;

  void set_callback(Callback cb) { callback_ = std::move(cb); }

  void on_message(Context&, NodeId from, const MessagePayload& msg) override {
    froms_.push_back(from);
    names_.emplace_back(msg.type_name());
    if (callback_) callback_(from, msg);
  }

  StateBits state_size() const override { return {}; }
  void encode_state(BufWriter&) const override {}
  std::string name() const override { return "test.probe"; }

  const std::vector<std::string>& received_types() const { return names_; }
  const std::vector<NodeId>& received_from() const { return froms_; }
  std::size_t received_count() const { return names_.size(); }

 private:
  Callback callback_;
  std::vector<std::string> names_;
  std::vector<NodeId> froms_;
};

}  // namespace memu::testing
