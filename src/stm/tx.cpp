#include "stm/tx.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "stm/commit_manager.hpp"
#include "stm/stm.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace autopn::stm {

namespace {

/// Finds the (owner, stamp) pair for `owner` in an owner list.
template <typename Owners>
auto find_owner(Owners& owners, const void* owner) {
  return std::find_if(owners.begin(), owners.end(),
                      [owner](const auto& pair) { return pair.first == owner; });
}

/// A non-owning handle on a value the snapshot registry keeps alive for the
/// attempt (aliasing constructor over an empty owner: no control block, no
/// reference count).
std::shared_ptr<const void> borrowed(const void* value) {
  return {std::shared_ptr<const void>{}, value};
}

/// Fibonacci hash of a box address onto `mask + 1` slots.
std::size_t slot_of(const VBoxBase* box, std::size_t mask) {
  const auto bits = reinterpret_cast<std::uintptr_t>(box);
  return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}

}  // namespace

// ---- FlatReadSet -----------------------------------------------------------

const void* const* FlatReadSet::find(const VBoxBase* box) {
  if (boxes_.size() <= kScanMax) {
    for (std::size_t i = 0; i < boxes_.size(); ++i) {
      if (boxes_[i] == box) return &values_[i];
    }
    return nullptr;
  }
  index_tail();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(box, mask);; i = (i + 1) & mask) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return nullptr;
    if (boxes_[slot - 1] == box) return &values_[slot - 1];
  }
}

void FlatReadSet::append_all(const FlatReadSet& other) {
  boxes_.insert(boxes_.end(), other.boxes_.begin(), other.boxes_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

void FlatReadSet::index_tail() {
  if (indexed_ == boxes_.size()) return;
  if (2 * boxes_.size() > slots_.size()) {
    std::size_t capacity = std::max<std::size_t>(slots_.size(), 4 * kScanMax);
    while (2 * boxes_.size() > capacity) capacity *= 2;
    slots_.assign(capacity, 0);
    indexed_ = 0;
  }
  for (; indexed_ < boxes_.size(); ++indexed_) index_one(indexed_);
}

void FlatReadSet::index_one(std::size_t pos) {
  const VBoxBase* box = boxes_[pos];
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(box, mask);; i = (i + 1) & mask) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) {
      slots_[i] = static_cast<std::uint32_t>(pos + 1);
      return;
    }
    if (boxes_[slot - 1] == box) return;  // a duplicate keeps the first entry
  }
}

// ---- Tx --------------------------------------------------------------------

Tx::Tx(Stm& stm, Tx* parent, std::uint64_t snapshot)
    : stm_(&stm),
      parent_(parent),
      root_(parent != nullptr ? parent->root_ : this),
      snapshot_(snapshot),
      depth_(parent != nullptr ? parent->depth_ + 1 : 0) {}

std::optional<Tx::ReadEntry> Tx::resolve_above(VBoxBase* box) {
  ReadEntry entry;
  // Deltas found on the way down to a base value, nearest ancestor first.
  // Cloned under the owning ancestor's mutex: the live object keeps growing
  // as that ancestor's other children merge ops into it.
  std::vector<std::unique_ptr<DeltaBase>> pending;
  std::shared_ptr<const void> base;
  bool have_base = false;
  for (Tx* anc = parent_; anc != nullptr; anc = anc->parent_) {
    // Relaxed: a stale 0 only orders this read before a sibling's merge,
    // which that merge's "entry appeared after our read" check catches; any
    // entry actually consumed is read under the mutex below.
    if (anc->published_writes_.load(std::memory_order_relaxed) == 0) continue;
    std::scoped_lock lock{anc->merge_mutex_};
    auto it = anc->writes_.find(box);
    if (it == anc->writes_.end()) continue;
    entry.owners.emplace_back(anc, it->second.stamp);
    if (it->second.delta != nullptr) {
      pending.push_back(it->second.delta->clone());
      continue;  // a delta needs the base beneath it
    }
    base = it->second.value;
    have_base = true;
    break;
  }
  if (entry.owners.empty()) return std::nullopt;  // plain: the global value
  if (!have_base) {
    if (const Body* body = box->body_at(root_->snapshot_); body != nullptr) {
      base = body->value.read();
    }
    entry.global_base = true;
  }
  // Materialize outermost-first so ops apply in tree serialization order;
  // commit_version 0 stamps touched entries as tentative (kTentativeEver).
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    base = (*it)->apply(base.get(), 0);
  }
  entry.anc_deltas.reserve(pending.size());
  for (auto& delta : pending) {
    entry.anc_deltas.emplace_back(std::move(delta));
  }
  entry.value = std::move(base);
  return entry;
}

const void* Tx::global_value(const VBoxBase* box) const {
  const Body* body = box->body_at(root_->snapshot_);
  if (body == nullptr) {
    throw std::logic_error{"transactional read of an uninitialized VBox"};
  }
  return body->value.read().get();
}

std::shared_ptr<const void> Tx::exact_base(VBoxBase* box) {
  // Cached (repeatable within one attempt regardless of concurrent sibling
  // merges — the conflict surfaces at commit-time validation).
  if (const void* const* value = flat_reads_.find(box)) return borrowed(*value);
  if (auto it = reads_.find(box); it != reads_.end()) return it->second.value;
  // A semantic resolution may already pin what this attempt saw of the box;
  // reuse it so exact and semantic reads always agree (the exact read
  // promotes it).
  std::optional<ReadEntry> entry;
  if (auto it = sem_reads_.find(box); it != sem_reads_.end()) {
    entry = it->second;
  } else {
    entry = resolve_above(box);
  }
  if (!entry || entry->owners.empty()) {
    const void* value = entry ? entry->value.get() : global_value(box);
    flat_reads_.append(box, value);
    return borrowed(value);
  }
  return reads_.emplace(box, std::move(*entry)).first->second.value;
}

std::shared_ptr<const void> Tx::semantic_base(VBoxBase* box) {
  if (auto it = sem_reads_.find(box); it != sem_reads_.end()) return it->second.value;
  std::optional<ReadEntry> entry;
  if (const void* const* value = flat_reads_.find(box)) {
    entry = ReadEntry{borrowed(*value), {}, true, {}};
  } else if (auto it = reads_.find(box); it != reads_.end()) {
    entry = it->second;
  } else {
    entry = resolve_above(box);
    if (!entry) entry = ReadEntry{borrowed(global_value(box)), {}, true, {}};
  }
  return sem_reads_.emplace(box, std::move(*entry)).first->second.value;
}

std::shared_ptr<const void> Tx::read_raw(const VBoxBase& cbox) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_read();

  // 1. own (tentative) writes win.
  if (auto it = writes_.find(box); it != writes_.end()) {
    if (it->second.delta == nullptr) return it->second.value;
    // Delta-only entry: the result also depends on the base beneath it, so
    // an exact read of the base is recorded.
    return it->second.delta->apply(exact_base(box).get(), 0);
  }
  // 2.–4. cached, else nearest-ancestor writes towards the root, else the
  // global chain.
  return exact_base(box);
}

std::shared_ptr<const void> Tx::read_semantic(const VBoxBase& cbox) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_read();

  if (auto it = writes_.find(box); it != writes_.end()) {
    if (it->second.delta == nullptr) return it->second.value;
    return it->second.delta->apply(semantic_base(box).get(), 0);
  }
  return semantic_base(box);
}

void Tx::write_raw(const VBoxBase& cbox, std::shared_ptr<const void> value) {
  if (root_->read_only_) {
    throw std::logic_error{"write inside a read-only transaction"};
  }
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_write();
  auto [it, inserted] = writes_.try_emplace(box, WriteEntry{nullptr, nullptr, next_stamp_});
  if (inserted) {
    ++next_stamp_;
  }
  it->second.value = std::move(value);
  it->second.delta = nullptr;  // a full value subsumes any pending delta
}

void Tx::write_delta(const VBoxBase& cbox, std::unique_ptr<DeltaBase> delta) {
  if (root_->read_only_) {
    throw std::logic_error{"write inside a read-only transaction"};
  }
  auto* box = const_cast<VBoxBase*>(&cbox);
  stm_->counters().bump_write();
  auto it = writes_.find(box);
  if (it == writes_.end()) {
    const std::uint64_t stamp = next_stamp_++;
    delta->restamp(stamp);
    writes_.emplace(box, WriteEntry{nullptr, std::move(delta), stamp});
    return;
  }
  if (it->second.value != nullptr) {
    // Delta over our own full value: materialize immediately — the entry
    // stays a full overwrite, which subsumes the op.
    it->second.value = delta->apply(it->second.value.get(), 0);
    return;
  }
  it->second.delta->absorb(*delta, it->second.stamp);
}

void Tx::add_predicate(const VBoxBase& cbox,
                       std::shared_ptr<const PredicateBase> predicate) {
  auto* box = const_cast<VBoxBase*>(&cbox);
  // An exact read of the box subsumes any predicate over its value.
  if (reads_.contains(box) || flat_reads_.find(box) != nullptr) return;
  auto it = sem_reads_.find(box);
  if (it == sem_reads_.end()) {
    throw std::logic_error{"add_predicate without a prior read_semantic"};
  }
  // Tree-local test: if any ancestor op the resolution applied may have
  // determined this fact (map ops are blind upserts/erases, so an op on the
  // guarded key *fully* determines its state), the fact is justified by the
  // tree's own pending write — it must not be checked against committed
  // state, where that write has not landed yet.
  bool tree_local = false;
  for (const auto& delta : it->second.anc_deltas) {
    if (predicate->overlaps(*delta, 0)) {
      tree_local = true;
      break;
    }
  }
  PredEntry entry{std::move(predicate), it->second.owners,
                  tree_local ? false : it->second.global_base};
  if (entry.owners.empty() && !entry.global_base) return;  // nothing to validate
  for (const auto& existing : preds_) {
    if (existing.pred->box() == box && existing.pred->same_as(*entry.pred) &&
        existing.owners == entry.owners &&
        existing.global_base == entry.global_base) {
      return;
    }
  }
  preds_.push_back(std::move(entry));
}

const DeltaBase* Tx::pending_delta(const VBoxBase& cbox) const {
  auto* box = const_cast<VBoxBase*>(&cbox);
  auto it = writes_.find(box);
  return it != writes_.end() ? it->second.delta.get() : nullptr;
}

bool Tx::has_pending_overwrite(const VBoxBase& cbox) const {
  auto* box = const_cast<VBoxBase*>(&cbox);
  auto it = writes_.find(box);
  return it != writes_.end() && it->second.value != nullptr;
}

void Tx::commit_into_parent() {
  // Chaos hook: forge a sibling conflict on the child merge path. Escalated
  // trees are exempt so the guaranteed-completion path cannot be sabotaged.
  if (!root_->escalated_) {
    AUTOPN_FAILPOINT("stm.child.merge",
                     throw ConflictError{ConflictKind::kInjected});
  }
  Tx* parent = parent_;
  std::scoped_lock lock{parent->merge_mutex_};

  // ---- phase 1: validate (nothing mutated until everything passes) -----
  //
  // Exact reads against sibling commits that merged into the parent since
  // this child started:
  //  * a level this child consumed a parent entry from must carry an
  //    unchanged writer stamp;
  //  * boxes resolved without the parent's involvement must not have
  //    appeared in the parent's write set at all (had they been there at
  //    read time, the ancestor walk would have found them first, so presence
  //    now proves a sibling wrote after our read). Flat reads are all of
  //    this kind.
  if (flat_reads_.intersects(parent->writes_)) {
    throw ConflictError{ConflictKind::kSiblingWrite};
  }
  for (auto& [box, read_entry] : reads_) {
    auto owner_it = find_owner(read_entry.owners, parent);
    auto write_it = parent->writes_.find(box);
    if (owner_it != read_entry.owners.end()) {
      if (write_it == parent->writes_.end() ||
          write_it->second.stamp != owner_it->second) {
        throw ConflictError{ConflictKind::kSiblingWrite};
      }
    } else if (write_it != parent->writes_.end()) {
      throw ConflictError{ConflictKind::kSiblingWrite};
    }
  }
  // Propagation-collision pre-check: if the parent already tracks a read of
  // the same box with *different* provenance, the tree observed the box in
  // two distinct states — retry this child so it re-reads the current one
  // (kStaleReRead). Checked before any mutation so the throw is clean. A
  // flat read is plain; every entry in the parent's reads_ is not.
  if (flat_reads_.intersects(parent->reads_)) {
    throw ConflictError{ConflictKind::kStaleReRead};
  }
  for (auto& [box, read_entry] : reads_) {
    OwnerList remaining = read_entry.owners;
    if (auto owner_it = find_owner(remaining, parent); owner_it != remaining.end()) {
      remaining.erase(owner_it);
    }
    if (remaining.empty() && !read_entry.global_base) continue;  // discharged
    if (auto it = parent->reads_.find(box); it != parent->reads_.end()) {
      if (it->second.owners != remaining ||
          it->second.global_base != read_entry.global_base) {
        throw ConflictError{ConflictKind::kStaleReRead};
      }
    } else if (!remaining.empty() && parent->flat_reads_.find(box) != nullptr) {
      throw ConflictError{ConflictKind::kStaleReRead};
    }
  }
  // Predicates: re-evaluate semantically instead of comparing stamps. A
  // changed parent entry only aborts when the change can affect the
  // predicate's truth — ops on other keys (overlaps() == false) or a full
  // value the predicate still holds() over sail through. This is the whole
  // point of the refactor: sibling merges on shared boxes stop being
  // conflicts unless they touch what this child actually depends on.
  for (auto& pred_entry : preds_) {
    auto* box = const_cast<VBoxBase*>(pred_entry.pred->box());
    auto owner_it = find_owner(pred_entry.owners, parent);
    auto write_it = parent->writes_.find(box);
    if (owner_it != pred_entry.owners.end()) {
      if (write_it == parent->writes_.end()) {
        throw ConflictError{ConflictKind::kPredicate};  // entry vanished
      }
      if (write_it->second.stamp != owner_it->second) {
        const WriteEntry& we = write_it->second;
        const bool still_valid =
            we.delta != nullptr
                ? !pred_entry.pred->overlaps(*we.delta, owner_it->second)
                : pred_entry.pred->holds(we.value.get());
        if (!still_valid) throw ConflictError{ConflictKind::kPredicate};
      }
    } else if (write_it != parent->writes_.end()) {
      // Entry appeared after our read: every op in it postdates us.
      const WriteEntry& we = write_it->second;
      const bool still_valid = we.delta != nullptr
                                   ? !pred_entry.pred->overlaps(*we.delta, 0)
                                   : pred_entry.pred->holds(we.value.get());
      if (!still_valid) throw ConflictError{ConflictKind::kPredicate};
    }
  }

  // ---- phase 2: merge (this is the serialization point of the child
  // among its siblings) ---------------------------------------------------
  for (auto& [box, write_entry] : writes_) {
    const std::uint64_t stamp = parent->next_stamp_++;
    auto it = parent->writes_.find(box);
    if (write_entry.delta != nullptr) {
      if (it == parent->writes_.end()) {
        write_entry.delta->restamp(stamp);
        parent->writes_.emplace(
            box, WriteEntry{nullptr, std::move(write_entry.delta), stamp});
      } else if (it->second.delta != nullptr) {
        it->second.delta->absorb(*write_entry.delta, stamp);
        it->second.stamp = stamp;
      } else {
        // Delta over a sibling's full value: materialize now (still
        // tentative); the entry stays a full overwrite.
        write_entry.delta->restamp(stamp);
        it->second.value = write_entry.delta->apply(it->second.value.get(), 0);
        it->second.stamp = stamp;
      }
    } else {
      auto& slot = parent->writes_[box];
      slot.value = std::move(write_entry.value);
      slot.delta = nullptr;  // a full value subsumes any pending delta
      slot.stamp = stamp;
    }
  }
  // Propagate reads/predicates not fully anchored at the parent upwards;
  // they are validated when the parent itself commits one level up
  // (compositional validation). Entries whose only dependency was the
  // parent's own tentative write are discharged here: the stamp/overlap
  // check above was their last obligation — later siblings serialize after
  // this child, and the parent itself resumes only after all children join.
  // An entry left with no owner but a global base is plain at the parent.
  // Its flat value is the committed one, not this child's materialization:
  // the parent only reads it as the base beneath its own pending delta.
  parent->flat_reads_.append_all(flat_reads_);
  for (auto& [box, read_entry] : reads_) {
    if (auto owner_it = find_owner(read_entry.owners, parent);
        owner_it != read_entry.owners.end()) {
      read_entry.owners.erase(owner_it);
    }
    if (!read_entry.owners.empty()) {
      parent->reads_.emplace(box, std::move(read_entry));
    } else if (read_entry.global_base) {
      const Body* body = box->body_at(root_->snapshot_);
      parent->flat_reads_.append(
          box, body != nullptr ? body->value.read().get() : nullptr);
    }
  }
  for (auto& pred_entry : preds_) {
    if (auto owner_it = find_owner(pred_entry.owners, parent);
        owner_it != pred_entry.owners.end()) {
      pred_entry.owners.erase(owner_it);
    }
    if (pred_entry.owners.empty() && !pred_entry.global_base) continue;
    auto* box = pred_entry.pred->box();
    const bool duplicate = std::any_of(
        parent->preds_.begin(), parent->preds_.end(), [&](const PredEntry& p) {
          return p.pred->box() == box && p.pred->same_as(*pred_entry.pred) &&
                 p.owners == pred_entry.owners &&
                 p.global_base == pred_entry.global_base;
        });
    if (!duplicate) parent->preds_.push_back(std::move(pred_entry));
  }
  parent->published_writes_.store(parent->writes_.size(), std::memory_order_relaxed);
}

void Tx::run_children(std::vector<std::function<void(Tx&)>> bodies) {
  if (bodies.empty()) return;
  using namespace std::chrono_literals;

  util::WaitGroup wait_group;
  wait_group.add(bodies.size());

  // Only the root's first spawn gets here without a gate: nested callers
  // exist only inside a batch the root already started.
  if (root_->tree_gate_ == nullptr) {
    root_->tree_gate_ = std::make_unique<util::ResizableSemaphore>(stm_->child_limit());
  }
  // Children skip this level's lock while it publishes no writes. No child
  // of this transaction runs yet, so the count is exact.
  published_writes_.store(writes_.size(), std::memory_order_relaxed);

  // A nested caller holds a tree-gate token itself; release it while blocked
  // waiting for children so the configured limit c counts *running* nested
  // transactions (and so c == 1 cannot self-deadlock on deeper nests).
  const bool released_own_token = !is_top_level();
  if (released_own_token) root_->tree_gate_->release();

  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (auto& body : bodies) {
    stm_->acquire_child_token(*root_->tree_gate_);
    stm_->pool().submit([this, task = std::move(body), &wait_group, &error_mutex,
                         &first_error] {
      unsigned attempt = 0;
      const unsigned budget = stm_->config().retry_budget;
      for (;;) {
        Tx child{*stm_, this, snapshot_};
        try {
          task(child);
          child.commit_into_parent();
          stm_->counters().bump_child_commit();
          break;
        } catch (const ConflictError& conflict) {
          stm_->counters().bump_child_abort(conflict.kind());
          ++attempt;
          if (budget != 0 && attempt >= budget) {
            // The child is starving among its siblings: give up on the
            // partial-abort retry and surface the conflict to the top level,
            // whose own budget guarantees completion (escalated, if need
            // be). Without this bound a pathologically conflicting child
            // pins its whole tree in run_children forever.
            std::scoped_lock lock{error_mutex};
            if (!first_error) first_error = std::current_exception();
            break;
          }
          stm_->backoff(attempt);
        } catch (...) {
          std::scoped_lock lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
          break;
        }
      }
      root_->tree_gate_->release();
      wait_group.done();
    });
  }

  // Help drain the nested pool before each wait, so a child still queued
  // behind busy workers runs here at once; required for progress when the
  // pool is smaller than the fan-out (e.g. single-core machines).
  do {
    while (stm_->pool().try_run_one()) {
    }
  } while (!wait_group.wait_for(200us));

  if (released_own_token) stm_->acquire_child_token(*root_->tree_gate_);
  if (first_error) std::rethrow_exception(first_error);
}

void Tx::commit_top_level() {
  // Transactions with no writes commit trivially: their snapshot is a
  // consistent cut of the multi-version store, and any predicates were
  // evaluated against that same cut.
  if (writes_.empty()) return;

  // Chaos hooks: forge a top-level validation failure just before the commit
  // manager runs the real protocol. Skipped for escalated attempts — under
  // exclusivity the retry loop relies on commits not failing.
  if (!escalated_) {
    AUTOPN_FAILPOINT("stm.commit.validate",
                     throw ConflictError{ConflictKind::kInjected});
    if (!preds_.empty()) {
      AUTOPN_FAILPOINT("stm.commit.validate_pred",
                       throw ConflictError{ConflictKind::kInjected});
    }
  }

  // Materialize the read/write/predicate sets once and hand the request to
  // the commit manager; the serialization protocol (global lock vs lock-free
  // helping) is entirely the manager's concern. By construction every
  // surviving entry at the root is anchored on committed state: owner lists
  // were popped level by level on the way up (so the root's exact reads are
  // all flat), and tree-local entries were discharged at their owning level.
  CommitRequest request;
  request.snapshot = snapshot_;
  request.read_boxes = flat_reads_.take_boxes();
  request.predicates.reserve(preds_.size());
  for (auto& pred_entry : preds_) {
    if (pred_entry.global_base) {
      request.predicates.push_back(std::move(pred_entry.pred));
    }
  }
  request.writes.reserve(writes_.size());
  for (auto& [box, write_entry] : writes_) {
    request.writes.push_back(CommitWrite{box, std::move(write_entry.value),
                                         std::move(write_entry.delta)});
  }
  stm_->commit_manager().commit(request);
}

}  // namespace autopn::stm
