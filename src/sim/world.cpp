#include "sim/world.h"

#include <algorithm>

namespace memu {

// ---- Context --------------------------------------------------------------

void Context::send(NodeId dst, MessagePtr payload) {
  MEMU_CHECK(payload != nullptr);
  MEMU_CHECK(dst.value < world_.process_count());
  effects_.sends.emplace_back(dst, std::move(payload));
}

void Context::log_op(OpEvent e) {
  e.step = step_;
  effects_.events.push_back(std::move(e));
}

std::uint64_t Context::next_op_id() {
  return world_.next_op_id_ + effects_.op_ids++;
}

// ---- World ------------------------------------------------------------------

// The buffer deliver() and invoke() record a handler's effects into, one
// per thread. It is emptied before each use, so whatever a throwing
// handler recorded is discarded instead of applied by the next step.
static Effects& scratch_effects() {
  thread_local Effects effects;
  effects.clear();
  return effects;
}

// Placement-copies `p` into a slot of this thread's slab pool. Process
// hierarchies are single-inheritance with Process first, so the base-class
// pointer clone_into returns is the payload address SlabRef frees through;
// the check catches any future layout that breaks that.
static SlabRef<Process> clone_to_slab(const Process& p) {
  void* mem = local_pool().alloc(p.clone_footprint());
  Process* obj = p.clone_into(mem);
  MEMU_CHECK(static_cast<void*>(obj) == mem);
  return SlabRef<Process>::adopt(obj);
}

NodeId World::add_process(std::unique_ptr<Process> p) {
  MEMU_CHECK(p != nullptr);
  const NodeId id{static_cast<std::uint32_t>(procs_.size())};
  p->set_id(id);
  procs_.push_back(Proc{clone_to_slab(*p)});
  channels_.set_node_count(procs_.size());
  // The new process's hash component is settled lazily, like any mutation.
  mark_proc_dirty(id);
  return id;
}

Process& World::mutable_process(NodeId id) {
  MEMU_CHECK_MSG(id.value < procs_.size(), "unknown process " << id);
  SlabRef<Process>& p = procs_[id.value].ref;
  // use_count() == 1 means this World is the sole owner: other Worlds can
  // only reach the block through their own process vectors, so no thread
  // can re-acquire it concurrently (the standard COW exclusivity argument;
  // the slab refcount's acquire load carries the same guarantee).
  if (p.use_count() > 1) {
    cowstats::note_process_detach(p->detach_bytes());
    p = clone_to_slab(*p);
  }
  // Conservatively assume the caller mutates: the hash component is
  // re-encoded at the next state_hash() call (O(this process), not
  // O(world)).
  mark_proc_dirty(id);
  return *p;
}

Process& World::process(NodeId id) { return mutable_process(id); }

const Process& World::process(NodeId id) const {
  MEMU_CHECK_MSG(id.value < procs_.size(), "unknown process " << id);
  return *procs_[id.value].ref;
}

std::vector<NodeId> World::server_ids() const {
  std::vector<NodeId> out;
  for (const Proc& p : procs_)
    if (p.ref->is_server()) out.push_back(p.ref->id());
  return out;
}

void World::crash(NodeId id) {
  MEMU_CHECK(id.value < procs_.size());
  toggle(crashed_.insert(id), statehash::kCrashedSeed, id);
}

void World::enqueue(ChannelId chan, MessagePtr payload) {
  // Messages from a crashed node are never produced (a crashed node takes no
  // steps), but a node may legitimately send and then crash in the same
  // adversary script; enqueuing checks only validity of endpoints.
  MEMU_CHECK(chan.src.value < procs_.size());
  MEMU_CHECK(chan.dst.value < procs_.size());
  channels_.push(chan, Message{std::move(payload), 0});
}

std::size_t World::first_allowed_index(
    ChannelId chan, const ChannelTable::Queue& queue) const {
  // A crashed recipient's queue is held; its messages drop on delivery.
  if (queue.empty() || crashed_.contains(chan.dst) || !open(chan))
    return kNoIndex;
  for (std::size_t i = 0; i < queue.size(); ++i)
    if (allowed(chan.src, *queue[i].payload)) return i;
  return kNoIndex;
}

std::size_t World::first_deliverable_index(ChannelId chan) const {
  const ChannelTable::Queue* queue = channels_.find(chan);
  if (queue == nullptr) return kNoIndex;
  return first_allowed_index(chan, *queue);
}

std::vector<ChannelId> World::deliverable_channels() const {
  std::vector<ChannelId> out;
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        if (first_allowed_index(chan, queue) != kNoIndex) out.push_back(chan);
      });
  return out;
}

bool World::has_deliverable() const {
  bool found = false;
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        if (!found && first_allowed_index(chan, queue) != kNoIndex)
          found = true;
      });
  return found;
}

std::size_t World::channel_depth(ChannelId chan) const {
  return channels_.depth(chan);
}

std::size_t World::in_flight() const { return channels_.total_messages(); }

std::vector<std::pair<ChannelId, std::size_t>> World::channel_contents()
    const {
  std::vector<std::pair<ChannelId, std::size_t>> out;
  channels_.for_each_nonempty(
      [&out](ChannelId chan, const ChannelTable::Queue& queue) {
        out.emplace_back(chan, queue.size());
      });
  return out;
}

std::vector<std::size_t> World::deliverable_indices(ChannelId chan) const {
  std::vector<std::size_t> out;
  const ChannelTable::Queue* queue = channels_.find(chan);
  if (queue == nullptr || crashed_.contains(chan.dst) || !open(chan))
    return out;
  for (std::size_t i = 0; i < queue->size(); ++i)
    if (allowed(chan.src, *(*queue)[i].payload)) out.push_back(i);
  return out;
}

void World::deliver_next_allowed(ChannelId chan) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr, "no messages on " << chan);
  const std::size_t index = first_allowed_index(chan, *queue);
  MEMU_CHECK_MSG(index != kNoIndex, "no deliverable message on " << chan);
  deliver(chan, index);
}

const MessagePayload& World::peek(ChannelId chan, std::size_t index) const {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "]");
  return *(*queue)[index].payload;
}

const MessagePayload& World::checked_payload(ChannelId chan,
                                             std::size_t index) const {
  const MessagePayload& payload = peek(chan, index);
  MEMU_CHECK_MSG(open(chan), "delivery on frozen or partitioned " << chan);
  MEMU_CHECK_MSG(allowed(chan.src, payload),
                 "blocked value delivery from " << chan.src);
  return payload;
}

Message World::take_message(ChannelId chan, std::size_t index) {
  checked_payload(chan, index);
  Message msg = channels_.pop(chan, index);
  ++step_count_;
  if (tracing_) {
    trace_.record({step_count_, chan, std::string(msg.payload->type_name()),
                   msg.payload->size_bits(), crashed_.contains(chan.dst)});
  }
  return msg;
}

void World::deliver(ChannelId chan, std::size_t index) {
  const Message msg = take_message(chan, index);
  if (crashed_.contains(chan.dst)) return;  // dropped at a crashed node

  // A delivery the recipient provably ignores (stale quorum response,
  // duplicate ack — see Process::ignores) leaves a byte-identical state
  // without running the handler, so skip the COW detach and the dirty-mark
  // a mutable_process() call would charge for nothing.
  if (procs_[chan.dst.value].ref->ignores(chan.src, *msg.payload)) return;

  Effects& effects = scratch_effects();
  Context ctx(*this, chan.dst, effects, step_count_);
  mutable_process(chan.dst).on_message(ctx, chan.src, *msg.payload);
  apply_effects(chan.dst, effects);
}

void World::probe_deliver(ChannelId chan, std::size_t index,
                          Probe& probe) const {
  MEMU_CHECK_MSG(!any_proc_dirty_, "probe_deliver on an unsettled hash");
  const MessagePayload& payload = checked_payload(chan, index);
  probe.clear();
  std::uint64_t h = procs_hash_ ^ sets_hash_ ^ oplog_.content_hash();
  const Proc& dst = procs_[chan.dst.value];
  // The same two no-op cases deliver() skips the handler for.
  if (!crashed_.contains(chan.dst) &&
      !dst.ref->ignores(chan.src, payload)) {
    probe.proc = clone_to_slab(*dst.ref);
    Context ctx(*this, chan.dst, probe.effects, step_count_ + 1);
    probe.proc->on_message(ctx, chan.src, payload);
    BufWriter fp = BufWriter::hashing();
    probe.proc->encode_state(fp);
    probe.proc_comp = statehash::component(statehash::kProcSeed,
                                           chan.dst.value, fp.fingerprint());
    h ^= dst.comp ^ probe.proc_comp;
    std::size_t pos = oplog_.size();
    for (const OpEvent& e : probe.effects.events)
      h ^= statehash::component(statehash::kOplogSeed, pos++,
                                OpLog::event_fp(e));
  }
  h ^= channels_.hash_after(chan, index, chan.dst, probe.effects.sends);
  probe.hash = mix64(h);
}

void World::apply_probe(ChannelId chan, std::size_t index, Probe& probe) {
  take_message(chan, index);
  if (probe.proc) {
    // The detach deliver() would make through mutable_process, metered
    // the same way, but only now that the successor is being built.
    Proc& p = procs_[chan.dst.value];
    if (p.ref.use_count() > 1)
      cowstats::note_process_detach(p.ref->detach_bytes());
    procs_hash_ ^= p.comp ^ probe.proc_comp;
    p.ref = std::move(probe.proc);
    p.comp = probe.proc_comp;
    p.dirty = 0;
  }
  apply_effects(chan.dst, probe.effects);
}

void World::apply_effects(NodeId self, Effects& effects) {
  for (auto& [dst, payload] : effects.sends)
    enqueue(ChannelId{self, dst}, std::move(payload));
  for (OpEvent& e : effects.events) oplog_.append(std::move(e));
  next_op_id_ += effects.op_ids;
  effects.clear();
}

void World::drop_message(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "] to drop");
  channels_.pop(chan, index);
}

void World::duplicate_message(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "] to duplicate");
  Message copy = (*queue)[index];
  channels_.push(chan, std::move(copy));
}

void World::delay_message(ChannelId chan, std::size_t index) {
  const ChannelTable::Queue* queue = channels_.find(chan);
  MEMU_CHECK_MSG(queue != nullptr && index < queue->size(),
                 "no message at " << chan << "[" << index << "] to delay");
  if (index + 1 == queue->size()) return;  // already at the back
  Message msg = channels_.pop(chan, index);
  channels_.push(chan, std::move(msg));
}

void World::log_fault(const std::string& description) {
  OpEvent e;
  e.kind = OpEvent::Kind::kFault;
  e.value.assign(description.begin(), description.end());
  e.step = step_count_;
  oplog_.append(std::move(e));
}

void World::invoke(NodeId client, Invocation inv) {
  MEMU_CHECK(client.value < procs_.size());
  MEMU_CHECK_MSG(!crashed_.contains(client), "invocation at crashed " << client);
  ++step_count_;
  Effects& effects = scratch_effects();
  Context ctx(*this, client, effects, step_count_);
  mutable_process(client).on_invoke(ctx, inv);
  apply_effects(client, effects);
}

ServerStorage World::server_storage() const {
  ServerStorage out;
  for (const Proc& p : procs_) {
    if (!p.ref->is_server() || crashed_.contains(p.ref->id())) continue;
    const StateBits s = p.ref->state_size();
    out.total += s;
    if (s.total() > out.max.total()) out.max = s;
    if (s.value_bits > out.max_value_bits) out.max_value_bits = s.value_bits;
  }
  return out;
}

Bytes World::canonical_encoding() const {
  BufWriter w;
  encode_canonical_into(w);
  return std::move(w).take();
}

void World::encode_canonical(Bytes& out) const {
  BufWriter w(std::move(out));
  encode_canonical_into(w);
  out = std::move(w).take();
}

void World::encode_canonical_into(BufWriter& w) const {
  cowstats::note_canonical_encoding();
  w.u64(procs_.size());
  for (const Proc& p : procs_) w.bytes(p.ref->encode_state());
  w.u64(channels_.nonempty_count());
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        w.u32(chan.src.value);
        w.u32(chan.dst.value);
        w.u64(queue.size());
        for (const auto& msg : queue) w.bytes(msg.payload->encode());
      });
  const auto encode_set = [&w](const NodeSet& s) {
    w.u64(s.size());
    s.for_each([&w](NodeId id) { w.u32(id.value); });
  };
  encode_set(crashed_);
  encode_set(frozen_);
  encode_set(value_blocked_);
  encode_set(bulk_blocked_);
  encode_set(partition_);
  w.u64(oplog_.size());
  oplog_.for_each([&w](const OpEvent& e) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(e.client.value);
    w.u64(e.op_id);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.bytes(e.value);
    // step deliberately omitted: log order alone determines precedence.
  });
}

void World::encode_canonical_relabeled(const std::vector<std::uint32_t>& map,
                                       Bytes& out) const {
  MEMU_CHECK(map.size() == procs_.size());
  cowstats::note_canonical_encoding();
  BufWriter w(std::move(out));
  const NodeRelabeling rank(&map);
  // Mapped-id position -> original index, so processes serialize in the
  // order a physically relabeled World would hold them.
  std::vector<std::uint32_t> inverse(map.size());
  for (std::uint32_t i = 0; i < map.size(); ++i) inverse[map[i]] = i;
  w.u64(procs_.size());
  Bytes scratch;
  for (const std::uint32_t original : inverse) {
    BufWriter proc(std::move(scratch));  // clear, keep capacity across procs
    procs_[original].ref->encode_state_relabeled(rank, proc);
    w.bytes(proc.data());
    scratch = std::move(proc).take();
  }
  // Channels re-sorted by mapped endpoints (for_each_nonempty yields
  // original (src, dst) order, which the permutation may scramble).
  struct Slot {
    std::uint32_t src, dst;
    const ChannelTable::Queue* queue;
  };
  std::vector<Slot> slots;
  slots.reserve(channels_.nonempty_count());
  channels_.for_each_nonempty(
      [&](ChannelId chan, const ChannelTable::Queue& queue) {
        slots.push_back({rank(chan.src), rank(chan.dst), &queue});
      });
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  w.u64(slots.size());
  for (const Slot& s : slots) {
    w.u32(s.src);
    w.u32(s.dst);
    w.u64(s.queue->size());
    for (const auto& msg : *s.queue) w.bytes(msg.payload->encode());
  }
  const auto encode_set = [&](const NodeSet& s) {
    std::vector<std::uint32_t> ids;
    ids.reserve(s.size());
    s.for_each([&](NodeId id) { ids.push_back(rank(id)); });
    std::sort(ids.begin(), ids.end());
    w.u64(ids.size());
    for (const std::uint32_t id : ids) w.u32(id);
  };
  encode_set(crashed_);
  encode_set(frozen_);
  encode_set(value_blocked_);
  encode_set(bulk_blocked_);
  encode_set(partition_);
  w.u64(oplog_.size());
  oplog_.for_each([&](const OpEvent& e) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u32(rank(e.client));
    w.u64(e.op_id);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.bytes(e.value);
  });
  out = std::move(w).take();
}

void World::flush_proc_hashes() const {
  if (!any_proc_dirty_) return;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const Proc& p = procs_[i];
    if (!p.dirty) continue;
    p.dirty = 0;
    procs_hash_ ^= p.comp;  // XOR out the stale component (0 if new)
    BufWriter fp = BufWriter::hashing();
    p.ref->encode_state(fp);
    p.comp = statehash::component(statehash::kProcSeed, i, fp.fingerprint());
    procs_hash_ ^= p.comp;
  }
  any_proc_dirty_ = false;
}

std::uint64_t World::state_hash() const {
  flush_proc_hashes();
  // Channel and oplog components are maintained inside their containers;
  // combining is O(1). The final mix keeps the XOR-combined value well
  // distributed after single-component changes.
  return mix64(procs_hash_ ^ sets_hash_ ^ channels_.content_hash() ^
               oplog_.content_hash());
}

std::uint64_t World::recompute_state_hash() const {
  std::uint64_t procs = 0;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    procs ^= statehash::component(statehash::kProcSeed, i,
                                  fingerprint64(procs_[i].ref->encode_state()));
  }
  std::uint64_t sets = 0;
  const auto fold_set = [&sets](const NodeSet& s, std::uint64_t seed) {
    s.for_each(
        [&](NodeId id) { sets ^= statehash::member(seed, id.value); });
  };
  fold_set(crashed_, statehash::kCrashedSeed);
  fold_set(frozen_, statehash::kFrozenSeed);
  fold_set(value_blocked_, statehash::kValueBlockedSeed);
  fold_set(bulk_blocked_, statehash::kBulkBlockedSeed);
  fold_set(partition_, statehash::kPartitionSeed);
  return mix64(procs ^ sets ^ channels_.recompute_content_hash() ^
               oplog_.recompute_content_hash());
}

StateBits World::channel_bits() const {
  StateBits total;
  channels_.for_each_nonempty(
      [&](ChannelId, const ChannelTable::Queue& queue) {
        for (const auto& m : queue) total += m.payload->size_bits();
      });
  return total;
}

// Default Process reactions.
void Process::on_invoke(Context&, const Invocation&) {
  MEMU_UNREACHABLE("invocation delivered to a non-client process");
}

}  // namespace memu
