#pragma once
// Transaction contexts for the multi-version PN-STM with closed parallel
// nesting (paper §III-A).
//
// Model: a top-level (root) transaction takes a snapshot of the global
// version clock; all reads in its tree resolve against that snapshot plus the
// tree's tentative writes, so snapshots are always consistent and no
// read-time validation is needed. A transaction may spawn children that run
// in parallel with one another (never with their parent — the parent blocks
// in run_children, matching the nested transaction model where only
// childless transactions access data).
//
// Read resolution order for a transaction X reading box B:
//   1. X's own write set (deltas materialized over the levels below);
//   2. X's cached reads (repeatable reads within one attempt);
//   3. nearest-ancestor write sets, walking towards the root. An ancestor
//      suspended in run_children publishes its write-set size; one that
//      publishes 0 is skipped without locking, otherwise its merge mutex is
//      taken (X's siblings commit-merge into that set concurrently). A
//      skipped ancestor that gains an entry for B after the skip is caught
//      at merge time, exactly as a write merged after a locked lookup is:
//      an entry that appeared after the read aborts with kSiblingWrite;
//   4. the global version chain at the root snapshot.
//
// Two kinds of read are tracked (stm/predicate.hpp):
//   * exact reads (read_raw) — the classic box-granularity entry. The common
//     plain read, which consumed no ancestor entry and bottomed out in the
//     global chain, is a flat {box, borrowed value} pair (FlatReadSet); a
//     read that consumed ancestor writes keeps a ReadEntry remembering each
//     of them (owner + stamp). Commit-time revalidation requires the box
//     untouched (stamp equality at each merge level, no entry appearing at a
//     level the read did not consume, version <= snapshot at top level);
//   * semantic reads (read_semantic + add_predicate) — the container
//     registers a PredicateBase instead; revalidation re-evaluates the
//     predicate against the then-current value at each serialization point,
//     so disjoint-key operations on a shared box no longer conflict.
//
// Child commit merges the child's write set into the parent under the
// parent's merge mutex after validating the child's exact reads (stamps) and
// predicates (overlaps/holds against what siblings merged since) — deltas
// compose by op-log concatenation with fresh stamps. Reads and predicates of
// higher ancestors and of global state are propagated upwards and validated
// when the enclosing transaction itself commits (compositional validation);
// the child's flat reads are appended to the parent's as they are, and
// checked against the parent only when it holds writes or tracked reads.
// Top-level commit moves the flat read boxes, the predicate set and
// the write set (values and deltas) into a CommitRequest and hands it to the
// Stm's pluggable CommitManager, which validates both against the version
// chains / newest committed values and installs new versions under its
// serialization protocol (global lock or lock-free helping — see
// stm/commit_manager.hpp).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stm/exceptions.hpp"
#include "stm/predicate.hpp"
#include "stm/vbox.hpp"
#include "util/semaphore.hpp"
#include "util/thread_annotations.hpp"

namespace autopn::stm {

class Stm;

/// The plain exact reads of one transaction attempt: boxes read straight from
/// the global chain with no ancestor provenance, each with the committed value
/// it resolved to. The value is borrowed, not owned: the snapshot registry
/// pins every body at or below the attempt's snapshot (the prune contract in
/// vbox.hpp), so the pointer stays valid until the attempt ends. Boxes and
/// values are parallel vectors, so a root hands the boxes to its
/// CommitRequest without copying. Lookups scan a small set linearly and
/// otherwise probe an open-addressing index, which covers entries lazily:
/// appends (own reads, whole child sets on merge) only push to the vectors.
/// A box may appear twice (two siblings read it); both entries then carry the
/// same committed value, and the index keeps the first.
class FlatReadSet {
 public:
  /// The value recorded for `box`, or nullptr when the set has no entry.
  [[nodiscard]] const void* const* find(const VBoxBase* box);

  void append(const VBoxBase* box, const void* value) {
    boxes_.push_back(box);
    values_.push_back(value);
  }

  /// Appends every entry of `other` (a child's set, at merge).
  void append_all(const FlatReadSet& other);

  /// True when any key of `map` has an entry here; probes whichever side is
  /// smaller.
  template <typename Map>
  [[nodiscard]] bool intersects(const Map& map) {
    if (map.empty() || boxes_.empty()) return false;
    if (map.size() < boxes_.size()) {
      for (const auto& [box, unused] : map) {
        if (find(box) != nullptr) return true;
      }
      return false;
    }
    for (const VBoxBase* box : boxes_) {
      if (map.contains(const_cast<VBoxBase*>(box))) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return boxes_.size(); }

  /// Moves the boxes out (the root's CommitRequest::read_boxes); the set is
  /// spent afterwards.
  [[nodiscard]] std::vector<const VBoxBase*> take_boxes() noexcept {
    return std::move(boxes_);
  }

 private:
  /// Sets up to this many entries are scanned rather than indexed.
  static constexpr std::size_t kScanMax = 16;

  /// Adds boxes_[indexed_, size()) to the index, growing it to keep the load
  /// at or below one half.
  void index_tail();
  /// Inserts position `pos` unless its box is already indexed.
  void index_one(std::size_t pos);

  std::vector<const VBoxBase*> boxes_;
  std::vector<const void*> values_;
  /// Open-addressing slots (capacity a power of two): position + 1, 0 empty.
  std::vector<std::uint32_t> slots_;
  std::size_t indexed_ = 0;  ///< boxes_[0, indexed_) are in slots_
};

/// Transaction handle passed to user code. Created and retried by the Stm
/// runtime (top-level) or by Tx::run_children (nested); never constructed by
/// applications directly.
class Tx {
 public:
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  /// Runs each body as a child transaction of this transaction. Children of
  /// one batch execute in parallel with each other on the Stm's nested-
  /// transaction pool, subject to the actuator's per-tree concurrency limit
  /// `c`; the caller blocks (helping to drain the pool) until all children
  /// have committed. A child that hits a sibling conflict is retried alone.
  void run_children(std::vector<std::function<void(Tx&)>> bodies);

  /// Requests an abort-and-retry of this transaction attempt.
  [[noreturn]] void retry() { throw ConflictError{ConflictKind::kExplicitRetry}; }

  /// True for a top-level transaction.
  [[nodiscard]] bool is_top_level() const noexcept { return parent_ == nullptr; }

  /// Nesting depth: 0 for top-level, 1 for its children, ...
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// The root snapshot all global reads in this tree resolve against.
  [[nodiscard]] std::uint64_t snapshot() const noexcept { return snapshot_; }

  /// Untyped transactional read; returns the value's erased pointer and
  /// records an exact (box-granularity) read. VBox<T>::read is the typed
  /// entry point. The pointer need not own the value (a plain read borrows
  /// the committed body, without a reference-count bump): use it within the
  /// attempt and copy out what must outlive it.
  [[nodiscard]] std::shared_ptr<const void> read_raw(const VBoxBase& box);

  /// Untyped transactional write (buffered full overwrite).
  void write_raw(const VBoxBase& box, std::shared_ptr<const void> value);

  // ---- semantic (datatype-aware) tracking -----------------------------

  /// Semantic read: resolves the value visible to this transaction (pending
  /// deltas materialized) WITHOUT recording an exact read. The caller must
  /// follow up with add_predicate() describing what it actually depends on;
  /// the resolution provenance is cached so the predicate can be anchored at
  /// the level whose tentative write it consumed. The pointer may borrow,
  /// as read_raw's does.
  [[nodiscard]] std::shared_ptr<const void> read_semantic(const VBoxBase& box);

  /// Appends a datatype op log to the box's write entry (composing with any
  /// pending delta or materializing over a pending full value). The delta is
  /// applied to the newest committed value at install time.
  void write_delta(const VBoxBase& box, std::unique_ptr<DeltaBase> delta);

  /// Registers a semantic predicate for a box previously resolved with
  /// read_semantic, anchored at the levels that resolution consumed. No-ops
  /// when the box is already covered by an exact read (strictly stronger).
  /// When an ancestor's *tentative* op may have determined the guarded fact
  /// (the predicate overlaps() one of the resolution's ancestor deltas), the
  /// predicate becomes tree-local: validated at each merge level but never
  /// against committed state — by top-level commit the deciding op has
  /// merged into the root's own write set and will install, so a
  /// committed-state check would always falsely fail.
  void add_predicate(const VBoxBase& box,
                     std::shared_ptr<const PredicateBase> predicate);

  /// This transaction's own pending delta on `box` (nullptr when none, or
  /// when the pending write is a full value). Containers use it to tell
  /// self-determined facts (no predicate needed) from inherited ones.
  [[nodiscard]] const DeltaBase* pending_delta(const VBoxBase& box) const;

  /// True when this transaction has a pending *full overwrite* of `box` —
  /// every fact about the box is then self-determined and needs no
  /// predicate.
  [[nodiscard]] bool has_pending_overwrite(const VBoxBase& box) const;

  /// Number of entries in the write set (diagnostics).
  [[nodiscard]] std::size_t write_set_size() const noexcept { return writes_.size(); }

  /// Number of exact read-set entries, flat and tracked (diagnostics).
  [[nodiscard]] std::size_t read_set_size() const noexcept {
    return flat_reads_.size() + reads_.size();
  }

  /// Number of registered semantic predicates (diagnostics).
  [[nodiscard]] std::size_t predicate_count() const noexcept { return preds_.size(); }

 private:
  friend class Stm;

  struct WriteEntry {
    /// Pending full overwrite; null for delta-only entries. A full value
    /// always subsumes (drops) any older delta on the same box.
    std::shared_ptr<const void> value;
    /// Pending op log, applied to the newest committed value at install
    /// time; null for full-value entries.
    std::shared_ptr<DeltaBase> delta;
    std::uint64_t stamp;  ///< parent-local monotone stamp; bumped on merge
  };

  /// Levels whose pending write entries a resolution consumed, nearest
  /// first: (owning transaction, its entry's stamp at read time).
  using OwnerList = std::vector<std::pair<Tx*, std::uint64_t>>;

  /// One resolved read with provenance: the cached materialized value
  /// (repeatable within the attempt) plus what commit-time revalidation
  /// needs. Exact entries that consumed an ancestor write live in reads_ and
  /// revalidate structurally (stamp per owner level, version at top); plain
  /// exact reads live in flat_reads_ instead. Semantic resolutions share the
  /// struct but live in sem_reads_ and are revalidated through predicates.
  struct ReadEntry {
    std::shared_ptr<const void> value;
    OwnerList owners;
    bool global_base = false;  ///< resolution reached the global chain
    /// Snapshots (clones) of the ancestor deltas the resolution applied,
    /// kept so add_predicate can ask a predicate whether a tentative op may
    /// have determined its fact (the tree-local test).
    std::vector<std::shared_ptr<const DeltaBase>> anc_deltas;
  };

  struct PredEntry {
    std::shared_ptr<const PredicateBase> pred;
    OwnerList owners;
    bool global_base = false;
  };

  Tx(Stm& stm, Tx* parent, std::uint64_t snapshot);

  /// Resolves the value visible to this transaction ABOVE its own write set:
  /// nearest-ancestor entries (materializing pending deltas) down to the
  /// global chain at the root snapshot, with owners/global_base provenance.
  /// Returns nullopt for a plain read — no ancestor holds an entry, so the
  /// value is the global one (global_value).
  [[nodiscard]] std::optional<ReadEntry> resolve_above(VBoxBase* box);

  /// The committed value of `box` at the root snapshot, borrowed (see
  /// FlatReadSet). Throws std::logic_error for a never-initialized box.
  [[nodiscard]] const void* global_value(const VBoxBase* box) const;

  /// The cached-or-resolved value beneath this tx's own write set for an
  /// exact read (read_raw materializes its own pending delta on top).
  /// Records the read: flat when plain, in reads_ otherwise.
  [[nodiscard]] std::shared_ptr<const void> exact_base(VBoxBase* box);

  /// The same for a semantic resolution, cached with provenance in
  /// sem_reads_ (never recorded as an exact read).
  [[nodiscard]] std::shared_ptr<const void> semantic_base(VBoxBase* box);

  /// Validates this child's exact reads and predicates against the parent's
  /// current write set and merges writes/reads/predicates upwards. Throws
  /// ConflictError on a sibling conflict.
  void commit_into_parent();

  /// Top-level commit: validate global reads + predicates, install writes
  /// (values and deltas). Throws ConflictError on validation failure.
  void commit_top_level();

  Stm* stm_;
  Tx* parent_;
  Tx* root_;
  std::uint64_t snapshot_;
  int depth_;

  // merge_mutex_ guards the read, write and predicate sets and next_stamp_
  // when the transaction is suspended in run_children and its children read
  // from or merge into it. While the transaction itself runs, nobody else
  // touches its sets.
  std::mutex merge_mutex_;
  std::unordered_map<VBoxBase*, WriteEntry> writes_ AUTOPN_GUARDED_BY(merge_mutex_);
  /// writes_.size() as last published: on entry to run_children and under
  /// merge_mutex_ after each child merge. A descendant reading 0 skips this
  /// level's lock (step 3 of the resolution order in the file comment).
  std::atomic<std::size_t> published_writes_{0};
  FlatReadSet flat_reads_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::unordered_map<VBoxBase*, ReadEntry> reads_ AUTOPN_GUARDED_BY(merge_mutex_);
  /// Semantic resolution cache: same shape as reads_, but carries no
  /// revalidation duty itself (the registered predicates do) and is never
  /// propagated — it only pins repeatable reads and provenance.
  std::unordered_map<VBoxBase*, ReadEntry> sem_reads_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::vector<PredEntry> preds_ AUTOPN_GUARDED_BY(merge_mutex_);
  std::uint64_t next_stamp_ AUTOPN_GUARDED_BY(merge_mutex_) = 1;

  /// Per-tree child-concurrency gate (capacity c); owned by the root and
  /// created on the tree's first run_children, so read-only and childless
  /// transactions never allocate one.
  std::unique_ptr<util::ResizableSemaphore> tree_gate_;

  /// Set on roots created by Stm::read_only(); writes anywhere in the tree
  /// then throw std::logic_error (checked in write_raw via the root).
  bool read_only_ = false;

  /// Set on roots running the starvation-escalation path (exclusive of all
  /// other commits). Failpoint sites skip injection for escalated trees so
  /// an armed fault cannot sabotage the guaranteed-completion path.
  bool escalated_ = false;
};

// ---- typed VBox accessors (need the full Tx definition) --------------------

template <typename T>
T VBox<T>::read(Tx& tx) const {
  return *static_cast<const T*>(tx.read_raw(*this).get());
}

template <typename T>
void VBox<T>::write(Tx& tx, T value) const {
  tx.write_raw(*this, std::make_shared<const T>(std::move(value)));
}

}  // namespace autopn::stm
