// Differential tests for the streamed fingerprints behind
// World::state_hash(): a hashing BufWriter folds an encoding into
// fingerprint64 without materializing it, message payloads are
// fingerprinted once in make_msg, and dirty processes are streamed straight
// into the hash. Every streamed value is checked against fingerprint64 of
// the materialized bytes, the path the from-scratch oracles keep using.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algo/abd/messages.h"
#include "algo/abd/system.h"
#include "algo/cas/messages.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/hash.h"
#include "common/rng.h"
#include "sim/world.h"

namespace memu {
namespace {

// ---- BufWriter hashing mode -------------------------------------------------

// Runs `write` against a storing and a hashing writer; the hashing
// fingerprint must equal fingerprint64 of the stored bytes.
template <class Fn>
void expect_stream_matches(Fn&& write) {
  BufWriter store;
  BufWriter hash = BufWriter::hashing();
  write(store);
  write(hash);
  EXPECT_EQ(hash.size(), store.size());
  EXPECT_EQ(hash.fingerprint(), fingerprint64(store.data()));
  EXPECT_EQ(store.fingerprint(), fingerprint64(store.data()));
}

Bytes pattern(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return b;
}

TEST(FingerprintStream, EmptyWriterMatchesEmptyBytes) {
  EXPECT_EQ(BufWriter::hashing().fingerprint(), fingerprint64(Bytes{}));
  EXPECT_EQ(BufWriter().fingerprint(), fingerprint64(Bytes{}));
}

TEST(FingerprintStream, EveryPrimitiveMatchesStoredBytes) {
  for (const std::uint8_t v : {0x00, 0x01, 0x7f, 0xff})
    expect_stream_matches([v](BufWriter& w) { w.u8(v); });
  for (const std::uint32_t v : {0u, 1u, 0x80000000u, 0xdeadbeefu})
    expect_stream_matches([v](BufWriter& w) { w.u32(v); });
  for (const std::uint64_t v :
       {0ull, 1ull, 0x0102030405060708ull, ~0ull})
    expect_stream_matches([v](BufWriter& w) { w.u64(v); });
  for (const bool v : {false, true})
    expect_stream_matches([v](BufWriter& w) { w.boolean(v); });
  // Spans: empty, short, and longer than 64 bytes.
  for (const std::size_t n : {0, 1, 7, 64, 65, 200}) {
    const Bytes b = pattern(n);
    expect_stream_matches([&b](BufWriter& w) { w.bytes(b); });
    const std::string s(b.begin(), b.end());
    expect_stream_matches([&s](BufWriter& w) { w.str(s); });
  }
}

TEST(FingerprintStream, MixedSequenceMatchesStoredBytes) {
  const Bytes big = pattern(300);
  expect_stream_matches([&big](BufWriter& w) {
    w.str("abd.store_req");
    w.u64(42);
    w.u32(7);
    w.boolean(true);
    w.bytes(big);
    w.u8(3);
    w.bytes({});
  });
}

TEST(FingerprintStream, StoringModeWritesLittleEndianWords) {
  BufWriter w;
  w.u32(0x04030201u);
  w.u64(0x0c0b0a0908070605ull);
  EXPECT_EQ(w.data(), (Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  BufReader r(w.data());
  EXPECT_EQ(r.u32(), 0x04030201u);
  EXPECT_EQ(r.u64(), 0x0c0b0a0908070605ull);
}

// ---- message payload fingerprints ---------------------------------------

// A payload built with make_msg carries a cached fingerprint; the same
// payload built any other way streams it. Both must equal fingerprint64 of
// the materialized encoding, and so must a copy of the cached one.
template <class T, class... Args>
void expect_payload(std::set<std::string>& seen, const Args&... args) {
  const MessagePtr cached = make_msg<T>(args...);
  const auto plain = std::make_shared<const T>(args...);
  const std::uint64_t expect = fingerprint64(cached->encode());
  const std::string name(cached->type_name());
  EXPECT_EQ(cached->fingerprint(), expect) << name;
  EXPECT_EQ(plain->fingerprint(), expect) << name;
  EXPECT_EQ(fingerprint64(plain->encode()), expect) << name;
  const T copy(static_cast<const T&>(*cached));
  EXPECT_EQ(copy.fingerprint(), expect) << name;
  seen.insert(name);
}

std::set<std::string> fingerprint_every_message_type() {
  std::set<std::string> seen;
  const Tag t{3, 2};
  const Value v = unique_value(2, 3, 70);  // > 64 bytes
  const Bytes shard = pattern(24);
  {
    using namespace abd;
    expect_payload<QueryReq>(seen, std::uint64_t{1}, true);
    expect_payload<QueryReq>(seen, std::uint64_t{1}, false);
    expect_payload<QueryResp>(seen, std::uint64_t{1}, t, v);
    expect_payload<StoreReq>(seen, std::uint64_t{1}, t, v);
    expect_payload<StoreAck>(seen, std::uint64_t{1});
  }
  {
    using namespace cas;
    expect_payload<QueryReq>(seen, std::uint64_t{1});
    expect_payload<QueryResp>(seen, std::uint64_t{1}, t);
    expect_payload<HashAnnounce>(seen, std::uint64_t{1}, t,
                                 std::uint64_t{0xfeed});
    expect_payload<HashAck>(seen, std::uint64_t{1}, t);
    expect_payload<PreWriteReq>(seen, std::uint64_t{1}, t, shard);
    expect_payload<PreWriteAck>(seen, std::uint64_t{1}, t);
    expect_payload<FinalizeReq>(seen, std::uint64_t{1}, t);
    expect_payload<FinalizeAck>(seen, std::uint64_t{1}, t);
    expect_payload<ReadFinReq>(seen, std::uint64_t{1}, t);
    expect_payload<ReadFinResp>(seen, std::uint64_t{1}, t, true, false, shard);
    expect_payload<ReadFinResp>(seen, std::uint64_t{1}, t, false, true,
                                Bytes{});
  }
  {
    using namespace ldr;
    const std::vector<NodeId> locs{NodeId{0}, NodeId{2}, NodeId{4}};
    expect_payload<DirQueryReq>(seen, std::uint64_t{1});
    expect_payload<DirQueryResp>(seen, std::uint64_t{1}, t, locs);
    expect_payload<DirUpdateReq>(seen, std::uint64_t{1}, t, locs);
    expect_payload<DirUpdateAck>(seen, std::uint64_t{1});
    expect_payload<RepReserveReq>(seen, std::uint64_t{1});
    expect_payload<RepReserveResp>(seen, std::uint64_t{1});
    expect_payload<RepPutReq>(seen, std::uint64_t{1}, t, v);
    expect_payload<RepPutAck>(seen, std::uint64_t{1});
    expect_payload<RepReleaseReq>(seen, t);
    expect_payload<RepGetReq>(seen, std::uint64_t{1}, t);
    expect_payload<RepGetResp>(seen, std::uint64_t{1}, t, true, v);
  }
  {
    using namespace strip;
    expect_payload<QueryReq>(seen, std::uint64_t{1});
    expect_payload<QueryResp>(seen, std::uint64_t{1}, t);
    expect_payload<StoreReq>(seen, std::uint64_t{1}, t, v);
    expect_payload<StoreAck>(seen, std::uint64_t{1}, t);
    expect_payload<CommitReq>(seen, std::uint64_t{1}, t);
    expect_payload<CommitAck>(seen, std::uint64_t{1}, t);
    expect_payload<GetReq>(seen, std::uint64_t{1}, t);
    expect_payload<GetResp>(seen, std::uint64_t{1}, t, GetResp::Kind::kFull,
                            Bytes(v.begin(), v.end()));
    expect_payload<GetResp>(seen, std::uint64_t{1}, t, GetResp::Kind::kGced,
                            Bytes{});
  }
  {
    using namespace gossip;
    expect_payload<StoreReq>(seen, std::uint64_t{1}, t, v);
    expect_payload<StoreAck>(seen, std::uint64_t{1});
    expect_payload<GossipMsg>(seen, t, v);
    expect_payload<QueryReq>(seen, std::uint64_t{1});
    expect_payload<QueryResp>(seen, std::uint64_t{1}, t, v);
  }
  return seen;
}

TEST(FingerprintStream, EveryMessageTypeMatchesItsEncoding) {
  EXPECT_EQ(fingerprint_every_message_type().size(), 4u + 10u + 11u + 8u + 5u);
}

// ---- seeded runs: processes and the message types they really send -------

// Drives `w` through one seeded random FIFO schedule to quiescence. After
// every step each process's streamed state fingerprint must equal
// fingerprint64 of its materialized encode_state(), and every message type
// the run sends must be one the test above covered.
void run_and_check(World& w, std::uint64_t seed,
                   const std::set<std::string>& covered) {
  w.enable_trace();
  Rng rng(seed);
  for (int step = 0; step < 2000; ++step) {
    for (std::uint32_t i = 0; i < w.process_count(); ++i) {
      const Process& p = w.process(NodeId{i});
      BufWriter h = BufWriter::hashing();
      p.encode_state(h);
      ASSERT_EQ(h.fingerprint(), fingerprint64(p.encode_state()))
          << p.name() << " seed " << seed << " step " << step;
    }
    ASSERT_EQ(w.state_hash(), w.recompute_state_hash())
        << "seed " << seed << " step " << step;
    const std::vector<ChannelId> chans = w.deliverable_channels();
    if (chans.empty()) break;
    w.deliver_next_allowed(chans[rng.next_below(chans.size())]);
  }
  EXPECT_FALSE(w.has_deliverable()) << "seed " << seed << " did not quiesce";
  EXPECT_FALSE(w.trace().empty());
  for (const TraceEvent& e : w.trace().events())
    EXPECT_TRUE(covered.contains(e.type_name)) << e.type_name;
}

class StreamedFingerprintRun : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const std::set<std::string> covered_ = fingerprint_every_message_type();
};

TEST_P(StreamedFingerprintRun, Abd) {
  abd::Options opt;
  opt.n_writers = 2;
  opt.value_size = 80;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 80)});
  sys.world.invoke(sys.writers[1], {OpType::kWrite, unique_value(2, 1, 80)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  run_and_check(sys.world, GetParam(), covered_);
}

TEST_P(StreamedFingerprintRun, Cas) {
  for (const bool hash_phase : {false, true}) {
    cas::Options opt;
    opt.hash_phase = hash_phase;
    cas::System sys = cas::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, unique_value(1, 1, opt.value_size)});
    sys.world.invoke(sys.writers[1],
                     {OpType::kWrite, unique_value(2, 1, opt.value_size)});
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
    run_and_check(sys.world, GetParam(), covered_);
  }
}

TEST_P(StreamedFingerprintRun, Ldr) {
  ldr::Options opt;
  ldr::System sys = ldr::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  run_and_check(sys.world, GetParam(), covered_);
}

TEST_P(StreamedFingerprintRun, Strip) {
  strip::Options opt;
  strip::System sys = strip::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  run_and_check(sys.world, GetParam(), covered_);
}

TEST_P(StreamedFingerprintRun, Gossip) {
  gossip::Options opt;
  gossip::System sys = gossip::make_system(opt);
  sys.world.invoke(sys.writer,
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  run_and_check(sys.world, GetParam(), covered_);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamedFingerprintRun, ::testing::Values(1, 2, 3));

// ---- the cached fingerprint in flight --------------------------------------

// Counts encode_content() calls, i.e. how often the payload was hashed or
// serialized.
std::atomic<int> g_encodes{0};

struct Counted final : MessagePayload {
  std::uint64_t id;
  explicit Counted(std::uint64_t i) : id(i) {}
  std::string_view type_name() const override { return "test.counted"; }
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override {
    ++g_encodes;
    w.u64(id);
  }
};

struct Inert final : CloneableProcess<Inert> {
  void on_message(Context&, NodeId, const MessagePayload&) override {}
  StateBits state_size() const override { return {0, 0}; }
  void encode_state(BufWriter&) const override {}
  std::string name() const override { return "test.inert"; }
};

World inert_world(std::size_t n) {
  World w;
  for (std::size_t i = 0; i < n; ++i) w.add_process(std::make_unique<Inert>());
  return w;
}

TEST(FingerprintStream, BroadcastPayloadIsHashedOnce) {
  World w = inert_world(5);
  g_encodes = 0;
  const MessagePtr msg = make_msg<Counted>(9);
  EXPECT_EQ(g_encodes.load(), 1);
  for (std::uint32_t d = 1; d < 5; ++d) w.enqueue({NodeId{0}, NodeId{d}}, msg);
  w.state_hash();
  EXPECT_EQ(g_encodes.load(), 1);
  EXPECT_EQ(w.state_hash(), w.recompute_state_hash());
}

TEST(FingerprintStream, PayloadWithoutMakeMsgStreamsPerPush) {
  World w = inert_world(3);
  g_encodes = 0;
  const MessagePtr msg = std::make_shared<const Counted>(9);
  w.enqueue({NodeId{0}, NodeId{1}}, msg);
  w.enqueue({NodeId{0}, NodeId{2}}, msg);
  EXPECT_EQ(g_encodes.load(), 2);
  EXPECT_EQ(w.state_hash(), w.recompute_state_hash());
}

TEST(FingerprintStream, CachedFingerprintSurvivesDuplicateAndDelay) {
  World w = inert_world(2);
  const ChannelId chan{NodeId{0}, NodeId{1}};
  w.enqueue(chan, make_msg<Counted>(1));
  w.enqueue(chan, make_msg<Counted>(2));
  w.enqueue(chan, make_msg<Counted>(3));
  g_encodes = 0;
  w.duplicate_message(chan, 0);  // [1, 2, 3, 1]
  w.delay_message(chan, 1);      // [1, 3, 1, 2]
  w.duplicate_message(chan, 3);  // [1, 3, 1, 2, 2]
  w.delay_message(chan, 0);      // [3, 1, 2, 2, 1]
  w.state_hash();
  EXPECT_EQ(g_encodes.load(), 0);  // nothing re-hashed
  EXPECT_EQ(w.channel_depth(chan), 5u);
  EXPECT_EQ(w.state_hash(), w.recompute_state_hash());

  // The same queue built from fresh payloads hashes identically.
  World fresh = inert_world(2);
  for (const std::uint64_t id : {3, 1, 2, 2, 1})
    fresh.enqueue(chan, make_msg<Counted>(id));
  EXPECT_EQ(w.state_hash(), fresh.state_hash());
}

}  // namespace
}  // namespace memu
