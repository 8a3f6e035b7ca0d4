#include "engine/frontier.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "engine/dpor.h"
#include "engine/replay.h"
#include "engine/spill.h"
#include "engine/thread_pool.h"
#include "engine/visited.h"
#include "sim/symmetry.h"

namespace memu::engine {

namespace {

// An expanded state, shared by the frontier nodes it generated: `world` is
// reached by delivering `step` from `parent`'s world, `depth` steps from
// the initial state (the root has depth 0 and no parent). The parent links
// are the delivery path, walked only for a violation or a spill batch.
// Snapshots are immutable once published, so threads share them safely;
// a published world's state hash is settled (no dirty process), so the
// probes that hash its children from several threads only read it.
// Links rebuilt for a reloaded spill batch hold an empty world: nothing
// pops from them.
struct Snapshot {
  World world;
  std::shared_ptr<const Snapshot> parent;
  ExploreStep step;
  std::size_t depth = 0;

  // Releases the parent chain iteratively: dropping it through nested
  // destructors would recurse once per level and overflow the stack on
  // paths of a million steps. Releasing one link destroys at most one
  // Snapshot, so a destructor that runs inside another one hands its own
  // link back through `handoff` and the outermost frame drops it next.
  // Every release goes through the refcount's atomic decrement; peeking
  // at use_count() instead would not order the unlinking after another
  // thread's last read of the link.
  ~Snapshot() {
    thread_local std::shared_ptr<const Snapshot>* handoff = nullptr;
    if (handoff != nullptr) {
      *handoff = std::move(parent);
      return;
    }
    std::shared_ptr<const Snapshot> next = std::move(parent);
    handoff = &next;
    while (next != nullptr) {
      std::shared_ptr<const Snapshot> p = std::move(next);
      p.reset();  // a Snapshot that dies here hands its parent to `next`
    }
    handoff = nullptr;
  }
};

// A frontier entry: one delivery past an expanded parent. Popping it
// probes or replays exactly that one step against parent->world (see
// Search::reach). The root node has no parent (and no step).
struct Node {
  std::shared_ptr<const Snapshot> parent;
  ExploreStep step;
  // Sleep set (engine/dpor.h): steps whose interleavings an earlier
  // sibling branch already covers. Always empty when reduction is off.
  std::vector<ExploreStep> sleep;
};

// Counters one worker bumps on every visit. Each worker owns one, on its
// own cache line, so the per-transition path writes no shared line; they
// are summed once the search ends. (states_visited stays a shared atomic:
// max_states is checked against it.)
struct alignas(64) Tally {
  std::size_t transitions = 0;
  std::size_t deduped = 0;
  std::size_t terminals = 0;
  std::size_t truncated = 0;
  std::size_t depth_cut = 0;
  std::size_t sleep_blocked = 0;
  std::size_t symmetry_merged = 0;

  Tally& operator+=(const Tally& o) {
    transitions += o.transitions;
    deduped += o.deduped;
    terminals += o.terminals;
    truncated += o.truncated;
    depth_cut += o.depth_cut;
    sleep_blocked += o.sleep_blocked;
    symmetry_merged += o.symmetry_merged;
    return *this;
  }
};

// The delivery path from the initial state to `snap`'s world. (A rebuilt
// chain's depth-1 link has no parent; the regular chain ends at the root.)
std::vector<ExploreStep> path_to(const Snapshot& snap) {
  std::vector<ExploreStep> path(snap.depth);
  for (const Snapshot* s = &snap; s != nullptr && s->depth > 0;
       s = s->parent.get())
    path[s->depth - 1] = s->step;
  return path;
}

// The delivery path from the initial state to `node`'s state.
std::vector<ExploreStep> path_of(const Node& node) {
  if (node.parent == nullptr) return {};
  std::vector<ExploreStep> path = path_to(*node.parent);
  path.push_back(node.step);
  return path;
}

class Search {
 public:
  Search(const ExploreOptions& opt, const StateCheck& invariant,
         const StateCheck& terminal)
      : opt_(opt),
        invariant_(invariant),
        terminal_(terminal),
        frontier_budget_(opt.frontier_budget_bytes != 0
                             ? opt.frontier_budget_bytes
                             : opt.mem.total / 8),
        visited_({opt.exact_dedupe, opt.dedupe ? visited_budget(opt) : 0}),
        tallies_(std::max<std::size_t>(opt.threads, 1)) {}

  ExploreResult run(const World& initial) {
    root_ = initial;
    sleep_on_ = opt_.reduction.sleep_sets;
    if (sleep_on_) server_mask_ = dpor::server_mask(initial);
    // Symmetry engages only when the root World is eligible; crashes and
    // blocks during exploration never change eligibility (roles and the
    // process set are fixed), so one root check covers the search.
    symmetry_on_ = opt_.reduction.symmetry && symmetry::eligible(initial);
    // Successors are hashed before they are built only when the dedupe
    // key is the plain state hash: exact mode needs the successor's bytes,
    // symmetry its orbit-canonical key.
    probe_on_ = opt_.dedupe && !opt_.exact_dedupe && !symmetry_on_;
    if (symmetry_on_ && opt_.dedupe && visited_budget(opt_) == 0) {
      // Telemetry twin-detector for symmetry_merged: an auxiliary plain-
      // fingerprint set, deliberately NOT maintained under a --mem budget
      // (it is unmetered and would roughly double visited memory).
      plain_seen_ = std::make_unique<VisitedSet>(VisitedSet::Options{});
    }
    Node root;
    if (opt_.threads <= 1) {
      account_frontier(node_bytes(root), 0);
      frontier_.push_back(std::move(root));
      run_sequential();
    } else {
      run_parallel(std::move(root));
    }

    Tally sum;
    for (const Tally& t : tallies_) sum += t;
    ExploreResult result;
    result.states_visited = states_visited_.load();
    result.terminal_states = sum.terminals;
    result.transitions = sum.transitions;
    result.deduped = sum.deduped;
    result.truncated = sum.truncated;
    result.dedupe_bytes = opt_.dedupe ? visited_.memory_bytes() : 0;
    result.dedupe_entries = opt_.dedupe ? visited_.size() : 0;
    result.exact_dedupe = opt_.exact_dedupe;
    result.frontier_bytes = frontier_peak_.load();
    if (spill_ != nullptr) {
      result.spill_batches = spill_->batches_spilled();
      result.spilled_nodes = spill_->nodes_spilled();
    }
    result.depth_cut = sum.depth_cut;
    result.steal_batches = steal_batches_;
    result.tasks_stolen = tasks_stolen_;
    result.sleep_blocked = sum.sleep_blocked;
    result.symmetry_merged = sum.symmetry_merged;
    result.symmetry_applied = symmetry_on_;
    // Every non-root pop delivers exactly one step, and counts one
    // transition; reloads add their replayed prefixes.
    result.replay_steps = result.transitions + reload_steps_.load();
    result.complete = complete_.load() && !aborted_.load();
    {
      std::lock_guard<std::mutex> lock(violation_mu_);
      result.ok = ok_;
      result.violation = violation_;
      result.violation_path = violation_path_;
    }
    return result;
  }

 private:
  // --mem split: the visited set takes half the budget (it is the
  // structure that scales with DISTINCT states and cannot shed load), the
  // in-memory frontier an eighth (it can — to disk); the rest is slack
  // for COW snapshots and bookkeeping. Direct overrides win.
  static std::size_t visited_budget(const ExploreOptions& opt) {
    if (opt.visited_budget_bytes != 0) return opt.visited_budget_bytes;
    return opt.mem.total / 2;
  }

  // Frontier memory accounting: the node struct plus its sleep set.
  // Deliberately based on size(), not capacity(), so the accounting — and
  // therefore every spill decision — is identical across allocators and
  // stdlib growth policies.
  static std::size_t node_bytes(const Node& n) {
    return sizeof(Node) + n.sleep.size() * sizeof(ExploreStep);
  }

  // One net update per visit (or reload) instead of one per node: the
  // visit's pushes all follow its pop, so the peak after the net update
  // is the peak the per-node updates would have seen.
  void account_frontier(std::size_t pushed, std::size_t popped) {
    const std::size_t now =
        frontier_bytes_.fetch_add(pushed - popped) + (pushed - popped);
    std::size_t peak = frontier_peak_.load(std::memory_order_relaxed);
    while (now > peak && !frontier_peak_.compare_exchange_weak(peak, now)) {
    }
  }

  void record_violation(const std::string& why, const Node& node) {
    std::lock_guard<std::mutex> lock(violation_mu_);
    if (ok_) {
      ok_ = false;
      violation_ = why;
      violation_path_ = path_of(node);
    }
    if (opt_.stop_at_first_violation) aborted_.store(true);
  }

  // Dedupe keys. Default: the state as-is. Under symmetry reduction the
  // key is the canonical encoding (or its fingerprint) of the World
  // relabeled by the orbit-canonical server permutation, so the whole
  // orbit shares one key and merges into its first-visited member.
  std::uint64_t dedupe_fingerprint(const World& world) const {
    return symmetry_on_ ? symmetry::canonical_fingerprint(world)
                        : world.state_hash();
  }

  void dedupe_key(const World& world, Bytes& buf) const {
    if (symmetry_on_) {
      symmetry::canonical_encoding(world, buf);
    } else {
      world.encode_canonical(buf);
    }
  }

  // Classifies `world` against the visited set and the max_states budget.
  // Returns true iff the caller should expand the state (fresh and within
  // budget); otherwise the node has been counted as deduped or truncated.
  // Fingerprint mode keys on World::state_hash() — the incremental hash
  // maintained through every mutation — so NO canonical encoding (and no
  // per-node serialization at all) happens here; symmetry reduction trades
  // that back for one canonical (relabeled) encoding per admitted state.
  // Exact mode pays the full encoding, through one recycled thread-local
  // buffer.
  bool admit(const World& world, Tally& tally) {
    if (states_visited_.load() >= opt_.max_states) {
      // Expansion budget exhausted: classify WITHOUT inserting — this
      // state is never expanded, so a later re-encounter must not count
      // as a dedupe merge (and could legitimately be expanded by a re-run
      // with a larger budget).
      bool seen;
      if (opt_.exact_dedupe) {
        Bytes& buf = encode_buffer();
        dedupe_key(world, buf);
        seen = visited_.contains(buf);
      } else {
        seen = visited_.contains(dedupe_fingerprint(world));
      }
      if (seen) {
        ++tally.deduped;
      } else {
        complete_.store(false);
        ++tally.truncated;
      }
      return false;
    }
    bool fresh;
    if (opt_.exact_dedupe) {
      Bytes& buf = encode_buffer();
      dedupe_key(world, buf);
      fresh = visited_.try_insert(buf);
    } else {
      fresh = visited_.try_insert(dedupe_fingerprint(world));
    }
    if (!fresh) ++tally.deduped;  // includes losing an insert race
    if (plain_seen_ != nullptr) {
      // symmetry_merged telemetry: a canonical-key hit whose PLAIN
      // fingerprint is new merged a symmetric twin, not a literal revisit.
      const bool plain_fresh = plain_seen_->try_insert(world.state_hash());
      if (!fresh && plain_fresh) ++tally.symmetry_merged;
    }
    return fresh;
  }

  static Bytes& encode_buffer() {
    // One encode buffer per worker thread, reused across every visited
    // node: exact mode serializes into warm capacity instead of growing a
    // fresh Bytes per state.
    static thread_local Bytes buf;
    return buf;
  }

  // Classifies a built World: admit() under dedupe, else the max_states
  // budget alone. True iff the state is to be expanded.
  bool classify(const World& world, Tally& tally) {
    if (opt_.dedupe) return admit(world, tally);
    if (states_visited_.load() < opt_.max_states) return true;
    complete_.store(false);
    ++tally.truncated;
    return false;
  }

  // Builds `node`'s state if it is to be expanded; otherwise counts it as
  // deduped or truncated and returns nullopt. The recursive DFS counted
  // `transitions` once per child call; counting here (non-root nodes only)
  // gives the same totals in the same order, including under aborts.
  // Probe path: the successor is hashed from its delta against the shared
  // parent, and only a fresh state is built — a COW copy of the parent
  // (pointer bumps) with the probed delivery applied. A revisit, the
  // common outcome, builds no World. Otherwise: copy, deliver, classify.
  std::optional<World> reach(const Node& node, Tally& tally) {
    if (node.parent == nullptr) {
      std::optional<World> world(root_);
      if (!classify(*world, tally)) return std::nullopt;
      return world;
    }
    ++tally.transitions;
    const World& parent = node.parent->world;
    const ExploreStep& step = node.step;
    if (probe_on_ && states_visited_.load() < opt_.max_states) {
      // One probe buffer per worker thread, emptied on every exit so no
      // process copy or payload outlives the visit.
      static thread_local World::Probe probe;
      struct Clear {
        World::Probe& p;
        ~Clear() { p.clear(); }
      } clear{probe};
      parent.probe_deliver(step.chan, step.index, probe);
      if (!visited_.try_insert(probe.hash)) {
        ++tally.deduped;  // includes losing an insert race
        return std::nullopt;
      }
      std::optional<World> world(parent);
      world->apply_probe(step.chan, step.index, probe);
      MEMU_CHECK_MSG(world->state_hash() == probe.hash,
                     "probed hash differs from the built successor's");
      return world;
    }
    std::optional<World> world(parent);
    world->deliver(step.chan, step.index);
    if (!classify(*world, tally)) return std::nullopt;
    return world;
  }

  // Visits one frontier node: reconstitution, dedupe, bounds, invariant,
  // terminal, and child generation. Children are passed to `emit` in
  // deterministic (channel, index) order; the caller decides where they go.
  template <class Emit>
  void visit(const Node& node, Tally& tally, Emit&& emit) {
    std::optional<World> reached = reach(node, tally);
    if (!reached.has_value()) return;
    World& world = *reached;
    const std::size_t depth =
        node.parent != nullptr ? node.parent->depth + 1 : 0;
    states_visited_.fetch_add(1);

    if (invariant_) {
      if (const auto why = invariant_(world); why.has_value()) {
        record_violation("invariant: " + *why, node);
        if (aborted_.load()) return;
      }
    }

    const std::vector<ChannelId> chans = world.deliverable_channels();
    if (chans.empty()) {
      ++tally.terminals;
      if (terminal_) {
        if (const auto why = terminal_(world); why.has_value())
          record_violation("terminal: " + *why, node);
      }
      return;
    }
    if (depth >= opt_.max_depth) {
      complete_.store(false);
      ++tally.depth_cut;
      return;
    }

    // The expanded state becomes the shared parent of its children.
    const auto snap = std::make_shared<const Snapshot>(
        std::move(world), node.parent, node.step, depth);
    const World& expanded = snap->world;

    // Sleep-set filtering (engine/dpor.h): an enumerated step found in the
    // node's sleep set is skipped — every interleaving it starts is
    // already covered through an earlier sibling of an ancestor. An
    // emitted child sleeps on the surviving inherited entries plus every
    // step emitted BEFORE it in this loop that commutes with its own
    // (dependent steps wake up). A node whose steps are ALL asleep emits
    // nothing and simply retires — it is not terminal (its channels are
    // non-empty), just redundant.
    std::vector<ExploreStep> acc;  // inherited sleep + earlier emitted steps
    if (sleep_on_) acc = node.sleep;
    const auto emit_step = [&](ChannelId chan, std::size_t index) {
      const ExploreStep step{chan, index};
      if (!sleep_on_) {
        emit(Node{snap, step, {}});
        return;
      }
      if (dpor::sleeps(node.sleep, step)) {
        ++tally.sleep_blocked;
        return;
      }
      Node child{snap, step, dpor::child_sleep(acc, step, server_mask_)};
      acc.push_back(step);
      emit(std::move(child));
    };
    for (const ChannelId chan : chans) {
      if (!opt_.reorder) {
        // First allowed index (may be > 0 under value/bulk blocks).
        const std::size_t index = expanded.first_deliverable_index(chan);
        MEMU_CHECK(index != kNoIndex);
        emit_step(chan, index);
        continue;
      }
      // Non-FIFO: branch over every deliverable position. Redundant
      // branches (identical payloads whose deliveries lead to identical
      // states) merge in the visited set — payload-level merging here
      // would be unsound for non-adjacent duplicates, whose remaining
      // queue orders differ.
      for (const std::size_t index : expanded.deliverable_indices(chan)) {
        emit_step(chan, index);
      }
    }
  }

  SpillFile& spill_file() {
    if (spill_ == nullptr) spill_ = std::make_unique<SpillFile>();
    return *spill_;
  }

  // Consumes `nodes[0, count)` — which must share one parent snapshot —
  // into a batch storing the parent's path once plus each node's step and
  // sleep set. The root node never spills (it is popped before anything
  // else is queued), so every node has a parent.
  static SpillBatch make_batch(Node* nodes, std::size_t count) {
    SpillBatch batch;
    batch.prefix = path_to(*nodes[0].parent);
    batch.entries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Node& n = nodes[i];
      batch.entries.push_back(SpillEntry{{n.step}, std::move(n.sleep)});
    }
    return batch;
  }

  // Reconstitutes a reloaded batch onto `out`: the shared prefix replays
  // ONCE from the root into the batch's common parent snapshot, and the
  // chain above it is rebuilt as path-only links so later violations and
  // spills can still walk the full path. A reloaded node's pop then
  // replays its one step, like any other pop.
  void load_batch(SpillBatch& batch, std::vector<Node>& out) {
    const std::vector<ExploreStep>& prefix = batch.prefix;
    World world = root_;
    replay(world, prefix, 0, prefix.size());
    reload_steps_.fetch_add(prefix.size());
    // Settle the hash before publishing: probes read the snapshot from
    // several threads at once and must find no dirty process to flush.
    world.state_hash();
    std::shared_ptr<const Snapshot> link;
    for (std::size_t i = 0; i + 1 < prefix.size(); ++i) {
      link = std::make_shared<const Snapshot>(World{}, std::move(link),
                                              prefix[i], i + 1);
    }
    const auto parent = std::make_shared<const Snapshot>(
        std::move(world), std::move(link),
        prefix.empty() ? ExploreStep{} : prefix.back(), prefix.size());
    std::size_t pushed = 0;
    for (SpillEntry& entry : batch.entries) {
      MEMU_CHECK(entry.suffix.size() == 1);
      out.push_back(Node{parent, entry.suffix[0], std::move(entry.sleep)});
      pushed += node_bytes(out.back());
    }
    account_frontier(pushed, 0);
  }

  // Sequential spill policy: when the accounted frontier bytes exceed the
  // budget, move the COLD FRONT of the LIFO vector — the nodes a pure DFS
  // would reach last — to disk, down to half budget (hysteresis so spills
  // batch up instead of thrashing). Consecutive front nodes sharing a
  // parent snapshot spill as one batch (same parent => same prefix). The
  // hot tail stays in memory, so the pop order is untouched; batches
  // return via reload_sequential() LIFO, exactly when the DFS would have
  // reached them.
  void maybe_spill_sequential() {
    if (frontier_budget_ == 0 ||
        frontier_bytes_.load() <= frontier_budget_)
      return;
    const std::size_t target = frontier_budget_ / 2;
    std::size_t take = 0, freed = 0;
    while (take + 1 < frontier_.size() &&
           frontier_bytes_.load() - freed > target) {
      freed += node_bytes(frontier_[take]);
      ++take;
    }
    if (take == 0) return;
    std::size_t i = 0;
    while (i < take) {
      std::size_t j = i + 1;
      while (j < take && frontier_[j].parent == frontier_[i].parent) ++j;
      spill_file().spill(make_batch(frontier_.data() + i, j - i));
      i = j;
    }
    frontier_.erase(frontier_.begin(),
                    frontier_.begin() + static_cast<std::ptrdiff_t>(take));
    frontier_bytes_.fetch_sub(freed);
  }

  // Reloads the most recent spill batch when the in-memory frontier has
  // drained; returns false when no work remains anywhere.
  bool reload_sequential() {
    SpillBatch batch;
    if (spill_ == nullptr || !spill_->reload(batch)) return false;
    load_batch(batch, frontier_);
    return true;
  }

  // Sequential mode: LIFO frontier, children pushed in reverse generation
  // order, so pops happen in exactly the recursive-DFS entry order — every
  // counter and the first counterexample match the seed explorer. Under a
  // frontier budget the cold front of the vector lives on disk, re-entering
  // exactly where the DFS would have reached it: the visit order — and so
  // every counter and the first violation — is byte-identical at any
  // budget.
  void run_sequential() {
    std::vector<Node> children;
    Tally& tally = tallies_[0];
    while ((!frontier_.empty() || reload_sequential()) && !aborted_.load()) {
      const Node node = std::move(frontier_.back());
      frontier_.pop_back();
      children.clear();
      visit(node, tally,
            [&](Node&& child) { children.push_back(std::move(child)); });
      std::size_t pushed = 0;
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        pushed += node_bytes(*it);
        frontier_.push_back(std::move(*it));
      }
      account_frontier(pushed, node_bytes(node));
      maybe_spill_sequential();
    }
  }

  // Parallel mode: the shared work-stealing pool (engine/thread_pool.h —
  // per-worker deques, randomized front steals, atomic in-flight
  // termination; the machinery was extracted from here so the fuzz
  // campaign runner drains through the same implementation). Children are
  // batch-submitted onto the visiting worker's own deque before the
  // parent retires.
  //
  // Counter guarantees are unchanged from the shared-queue engine: every
  // generated node is popped exactly once by some worker, and dedupe is
  // atomic per state, so states/terminals/transitions/deduped match the
  // sequential run regardless of thread count or steal order.
  // Parallel budget enforcement: a worker whose children would push the
  // accounted frontier past its budget spills the WHOLE child batch to
  // disk instead of submitting it (one lock, one sequential write). The
  // refill hook reloads a batch when a worker finds no queued work and
  // nothing to steal — before the termination check, so spilled nodes
  // (which live outside the pool's in-flight counter) can never be
  // orphaned: the spill happened inside a visit, which holds in-flight
  // above zero until the spilling worker retires, and by then the batch
  // record is visible under spill_mu_. Parallel mode never promised a
  // deterministic visit ORDER — only the counter guarantees above — and
  // spilling moves nodes between workers exactly like a steal does, so
  // those guarantees are unchanged.
  void spill_parallel(std::vector<Node>& children) {
    // All children of one visit share the visiting node's snapshot, so
    // the whole batch carries one prefix.
    std::size_t freed = 0;
    for (const Node& child : children) freed += node_bytes(child);
    const SpillBatch batch = make_batch(children.data(), children.size());
    children.clear();
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      spill_file().spill(batch);
    }
    frontier_bytes_.fetch_sub(freed);
  }

  bool refill_parallel(std::size_t id, WorkStealingPool<Node>& pool) {
    SpillBatch batch;
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      if (spill_ == nullptr || !spill_->reload(batch)) return false;
    }
    // Prefix replay happens outside the lock — one replay per batch, not
    // per node.
    std::vector<Node> nodes;
    load_batch(batch, nodes);
    pool.submit(id, nodes);
    return true;
  }

  void run_parallel(Node&& root) {
    WorkStealingPool<Node> pool(opt_.threads);
    account_frontier(node_bytes(root), 0);
    pool.seed(std::move(root));
    pool.run(
        [this, &pool](std::size_t id, Node&& node) {
          if (aborted_.load()) {
            pool.stop();
            return;
          }
          // One child buffer per worker thread, reused across visits.
          static thread_local std::vector<Node> children;
          children.clear();
          visit(node, tallies_[id],
                [&](Node&& child) { children.push_back(std::move(child)); });
          std::size_t pushed = 0;
          for (const Node& child : children) pushed += node_bytes(child);
          account_frontier(pushed, node_bytes(node));
          if (frontier_budget_ != 0 && !children.empty() &&
              frontier_bytes_.load() > frontier_budget_) {
            spill_parallel(children);
          } else {
            pool.submit(id, children);
          }
        },
        [this, &pool](std::size_t id) { return refill_parallel(id, pool); });
    steal_batches_ = pool.steal_batches();
    tasks_stolen_ = pool.tasks_stolen();
  }

  const ExploreOptions& opt_;
  const StateCheck& invariant_;
  const StateCheck& terminal_;
  // Declared before visited_ to match the constructor's init order.
  std::size_t frontier_budget_ = 0;  // bytes; 0 = unbudgeted
  VisitedSet visited_;

  World root_;                  // the initial state; reloads replay from it
  std::vector<Node> frontier_;  // sequential mode only

  // --- partial-order reduction ---------------------------------------------
  bool sleep_on_ = false;
  bool symmetry_on_ = false;
  bool probe_on_ = false;  // see run()
  std::vector<std::uint8_t> server_mask_;  // dpor independence input
  std::unique_ptr<VisitedSet> plain_seen_;  // symmetry_merged telemetry

  std::atomic<std::size_t> frontier_bytes_{0};
  std::atomic<std::size_t> frontier_peak_{0};
  std::mutex spill_mu_;  // guards spill_ in parallel mode
  std::unique_ptr<SpillFile> spill_;  // lazily created on first spill

  std::vector<Tally> tallies_;  // one per pool worker; [0] when sequential
  alignas(64) std::atomic<std::size_t> states_visited_{0};
  // Written once, after pool.run() returns (workers joined) — plain fields.
  std::size_t steal_batches_ = 0;
  std::size_t tasks_stolen_ = 0;
  std::atomic<std::size_t> reload_steps_{0};  // prefix steps replayed
  std::atomic<bool> complete_{true};
  std::atomic<bool> aborted_{false};

  std::mutex violation_mu_;
  bool ok_ = true;
  std::string violation_;
  std::vector<ExploreStep> violation_path_;
};

}  // namespace

ExploreResult frontier_search(const World& initial, const ExploreOptions& opt,
                              const StateCheck& invariant,
                              const StateCheck& terminal) {
  Search search(opt, invariant, terminal);
  return search.run(initial);
}

}  // namespace memu::engine

namespace memu {

std::string omission_note(const ExploreResult& r) {
  if (r.exact_dedupe) return "";
  const double s = static_cast<double>(r.dedupe_entries);
  char buf[96];
  std::snprintf(buf, sizeof buf,
                " (fingerprint dedupe: omission probability ~%.1e)",
                s * s / 0x1p65);
  return buf;
}

}  // namespace memu
