// Closed parallel-nesting semantics: child visibility rules, merge-on-commit,
// sibling conflict detection and child-local retry, multi-level nesting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "stm/containers.hpp"
#include "stm/stm.hpp"

namespace autopn::stm {
namespace {

StmConfig nest_config(std::size_t pool = 4, std::size_t c = 8) {
  StmConfig cfg;
  cfg.pool_threads = pool;
  cfg.initial_top = 4;
  cfg.initial_children = c;
  return cfg;
}

TEST(Nesting, ChildSeesParentTentativeWrite) {
  Stm stm{nest_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    box.write(tx, 100);
    int child_saw = 0;
    tx.run_children({[&](Tx& child) { child_saw = box.read(child); }});
    EXPECT_EQ(child_saw, 100);
  });
}

TEST(Nesting, ChildSeesGlobalSnapshotWhenParentSilent) {
  Stm stm{nest_config()};
  VBox<int> box{55};
  stm.run_top([&](Tx& tx) {
    int child_saw = 0;
    tx.run_children({[&](Tx& child) { child_saw = box.read(child); }});
    EXPECT_EQ(child_saw, 55);
  });
}

TEST(Nesting, ChildWriteVisibleToParentAfterJoin) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, 9); }});
    EXPECT_EQ(box.read(tx), 9);  // merged into parent's write set
  });
  EXPECT_EQ(box.peek(), 9);  // and committed globally with the root
}

TEST(Nesting, ChildWriteNotGloballyVisibleUntilRootCommits) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, 5); }});
    // Closed nesting: still private to the tree before root commit.
    EXPECT_EQ(box.peek(), 0);
  });
  EXPECT_EQ(box.peek(), 5);
}

TEST(Nesting, DisjointSiblingsAllMerge) {
  Stm stm{nest_config()};
  TArray<int> arr{16, 0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t i = 0; i < 16; ++i) {
      kids.emplace_back([&arr, i](Tx& child) {
        arr.write(child, i, static_cast<int>(i) + 1);
      });
    }
    tx.run_children(std::move(kids));
  });
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(arr.peek(i), static_cast<int>(i) + 1);
  }
  EXPECT_EQ(stm.stats().child_commits, 16u);
  EXPECT_EQ(stm.stats().child_aborts, 0u);
}

TEST(Nesting, ConflictingSiblingsSerializeViaRetry) {
  // All children increment one counter: sibling conflicts force retries but
  // the final sum must equal the number of children (atomic increments).
  Stm stm{nest_config(/*pool=*/4, /*c=*/8)};
  VBox<int> counter{0};
  const int kids_n = 12;
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int i = 0; i < kids_n; ++i) {
      kids.emplace_back([&](Tx& child) { counter.write(child, counter.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(counter.peek(), kids_n);
  EXPECT_EQ(stm.stats().child_commits, static_cast<std::uint64_t>(kids_n));
}

TEST(Nesting, SiblingConflictRetriesChildOnlyNotRoot) {
  Stm stm{nest_config()};
  VBox<int> counter{0};
  std::atomic<int> root_attempts{0};
  stm.run_top([&](Tx& tx) {
    root_attempts.fetch_add(1);
    std::vector<std::function<void(Tx&)>> kids;
    for (int i = 0; i < 8; ++i) {
      kids.emplace_back([&](Tx& child) { counter.write(child, counter.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(root_attempts.load(), 1);  // partial aborts stayed inside the tree
  EXPECT_EQ(counter.peek(), 8);
}

TEST(Nesting, TwoLevelNesting) {
  Stm stm{nest_config(/*pool=*/4, /*c=*/4)};
  TArray<int> arr{8, 0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t half = 0; half < 2; ++half) {
      kids.emplace_back([&arr, half](Tx& child) {
        std::vector<std::function<void(Tx&)>> grandkids;
        for (std::size_t i = 0; i < 4; ++i) {
          const std::size_t idx = half * 4 + i;
          grandkids.emplace_back([&arr, idx](Tx& grandchild) {
            arr.write(grandchild, idx, 7);
            EXPECT_EQ(grandchild.depth(), 2);
          });
        }
        child.run_children(std::move(grandkids));
        // Grandchildren's writes merged into the child.
        for (std::size_t i = 0; i < 4; ++i) {
          EXPECT_EQ(arr.read(child, half * 4 + i), 7);
        }
      });
    }
    tx.run_children(std::move(kids));
  });
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(arr.peek(i), 7);
}

TEST(Nesting, DeepNestingWithChildLimitOne) {
  // c=1 must not deadlock: a nested spawner releases its token while waiting.
  Stm stm{nest_config(/*pool=*/2, /*c=*/1)};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) {
      child.run_children({[&](Tx& grandchild) {
        grandchild.run_children({[&](Tx& ggchild) { box.write(ggchild, 3); }});
      }});
    }});
  });
  EXPECT_EQ(box.peek(), 3);
}

TEST(Nesting, ChildReadValidatedAgainstSiblingWrite) {
  // Construct a deterministic sibling conflict: both children read-modify-
  // write the same box; exactly one must retry (or more, but commits == 2 and
  // result == 2).
  Stm stm{nest_config(/*pool=*/2, /*c=*/2)};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (int i = 0; i < 2; ++i) {
      kids.emplace_back([&](Tx& child) { box.write(child, box.read(child) + 1); });
    }
    tx.run_children(std::move(kids));
  });
  EXPECT_EQ(box.peek(), 2);
}

TEST(Nesting, EmptyChildBatchIsNoop) {
  Stm stm{nest_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    tx.run_children({});
    box.write(tx, 2);
  });
  EXPECT_EQ(box.peek(), 2);
}

TEST(Nesting, UserExceptionInChildPropagatesToParent) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  EXPECT_THROW(stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx&) { throw std::runtime_error{"child boom"}; }});
    box.write(tx, 1);
  }),
               std::runtime_error);
  EXPECT_EQ(box.peek(), 0);
}

TEST(Nesting, SequentialChildBatches) {
  Stm stm{nest_config()};
  VBox<int> box{0};
  stm.run_top([&](Tx& tx) {
    tx.run_children({[&](Tx& child) { box.write(child, box.read(child) + 1); }});
    tx.run_children({[&](Tx& child) { box.write(child, box.read(child) + 1); }});
    EXPECT_EQ(box.read(tx), 2);
  });
  EXPECT_EQ(box.peek(), 2);
}

TEST(Nesting, ParentReadThenChildWriteThenParentRead) {
  // Parent reads X, a child overwrites it, parent reads again and must see
  // the child's (merged) value — nested program-order semantics.
  Stm stm{nest_config()};
  VBox<int> box{10};
  stm.run_top([&](Tx& tx) {
    EXPECT_EQ(box.read(tx), 10);
    tx.run_children({[&](Tx& child) { box.write(child, 20); }});
    EXPECT_EQ(box.read(tx), 20);
  });
  EXPECT_EQ(box.peek(), 20);
}

TEST(Nesting, ManyChildrenWithSmallPool) {
  // Fan-out far above the pool size; help-draining keeps progress.
  Stm stm{nest_config(/*pool=*/1, /*c=*/4)};
  TArray<long> arr{64, 0L};
  stm.run_top([&](Tx& tx) {
    std::vector<std::function<void(Tx&)>> kids;
    for (std::size_t i = 0; i < 64; ++i) {
      kids.emplace_back([&arr, i](Tx& child) { arr.write(child, i, 1L); });
    }
    tx.run_children(std::move(kids));
  });
  long sum = 0;
  for (std::size_t i = 0; i < 64; ++i) sum += arr.peek(i);
  EXPECT_EQ(sum, 64L);
}

TEST(Nesting, GrandchildSeesGrandparentTentativeWrite) {
  Stm stm{nest_config()};
  VBox<int> box{1};
  stm.run_top([&](Tx& tx) {
    box.write(tx, 42);
    int seen = 0;
    tx.run_children({[&](Tx& child) {
      child.run_children({[&](Tx& grandchild) { seen = box.read(grandchild); }});
    }});
    EXPECT_EQ(seen, 42);
  });
}

// ---- lock-free ancestor lookup and flat reads ------------------------------
//
// A child skips an ancestor that publishes no writes without locking it, and
// records a plain read as a flat entry. These cases pin, with latches, the
// interleavings in which a sibling merges into a skipped level after the
// read; each must still end in the conflict the locked lookup would raise.
// Only the first attempt of the reading child parks; retries run straight
// through.

class NestingFlatReads : public ::testing::TestWithParam<CommitStrategy> {
 protected:
  StmConfig config() const {
    StmConfig cfg = nest_config(/*pool=*/2, /*c=*/4);
    cfg.commit_strategy = GetParam();
    return cfg;
  }
};

/// Blocks until `stm` has counted `n` child commits (a child's commit is
/// counted once its merge into the parent is complete).
void await_child_commits(Stm& stm, std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (stm.stats().child_commits < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "sibling never merged";
    std::this_thread::yield();
  }
}

TEST_P(NestingFlatReads, SiblingMergeAfterSkippedParentAbortsTheReader) {
  Stm stm{config()};
  VBox<int> box{0};
  std::latch read_done{1};
  // Values the reading child saw, one row per attempt. Its attempts run one
  // after another, each ordered after the last by the pool's queue.
  std::vector<std::vector<int>> observed;
  int root_attempts = 0;
  stm.run_top([&](Tx& tx) {
    ++root_attempts;
    // The root writes nothing, so it publishes 0 and the reader skips it.
    tx.run_children({
        [&](Tx& child) {
          const std::size_t attempt = observed.size();
          observed.push_back({box.read(child)});
          if (attempt == 0) {
            read_done.count_down();
            await_child_commits(stm, 1);  // the writer has merged
          }
        },
        [&](Tx& child) {
          read_done.wait();
          box.write(child, 7);
        },
    });
  });
  EXPECT_EQ(root_attempts, 1);
  // The reader's merge met the writer's entry, which appeared at the root
  // after the read: kSiblingWrite (the root tracks no reads, so the check
  // for kStaleReRead cannot be the one that fired).
  EXPECT_EQ(stm.stats().aborts_sibling, 1u);
  EXPECT_EQ(observed, (std::vector<std::vector<int>>{{0}, {7}}));
  EXPECT_EQ(box.peek(), 7);
}

TEST_P(NestingFlatReads, SiblingMergeAfterSkippedGrandparentAbortsTheReader) {
  Stm stm{config()};
  VBox<int> box{0};
  std::latch read_done{1};
  // Values the reading child saw, one row per attempt. Its attempts run one
  // after another, each ordered after the last by the pool's queue.
  std::vector<std::vector<int>> observed;
  int root_attempts = 0;
  stm.run_top([&](Tx& tx) {
    ++root_attempts;
    tx.run_children({
        [&](Tx& parent) {
          // Neither this parent nor the root writes: the grandchild skips
          // both levels.
          parent.run_children({[&](Tx& grandchild) {
            const std::size_t attempt = observed.size();
            observed.push_back({box.read(grandchild)});
            if (attempt == 0) {
              read_done.count_down();
              await_child_commits(stm, 1);  // the parent's sibling has merged
            }
          }});
        },
        [&](Tx& uncle) {
          read_done.wait();
          box.write(uncle, 7);
        },
    });
  });
  EXPECT_EQ(root_attempts, 1);
  // The grandchild merges cleanly into its parent; the parent then meets the
  // uncle's entry at the root (kSiblingWrite) and retries, grandchild and
  // all.
  EXPECT_EQ(stm.stats().aborts_sibling, 1u);
  EXPECT_EQ(observed, (std::vector<std::vector<int>>{{0}, {7}}));
  EXPECT_EQ(box.peek(), 7);
}

TEST_P(NestingFlatReads, ReReadAfterSiblingMergeReturnsTheFirstValue) {
  Stm stm{config()};
  VBox<int> box{0};
  std::latch read_done{1};
  // Values the reading child saw, one row per attempt. Its attempts run one
  // after another, each ordered after the last by the pool's queue.
  std::vector<std::vector<int>> observed;
  stm.run_top([&](Tx& tx) {
    tx.run_children({
        [&](Tx& child) {
          const std::size_t attempt = observed.size();
          observed.push_back({box.read(child)});
          if (attempt == 0) {
            read_done.count_down();
            await_child_commits(stm, 1);
            // Repeatable within the attempt, although the root now holds
            // the writer's value.
            observed[attempt].push_back(box.read(child));
          }
        },
        [&](Tx& child) {
          read_done.wait();
          box.write(child, 7);
        },
    });
  });
  EXPECT_EQ(stm.stats().aborts_sibling, 1u);
  EXPECT_EQ(observed, (std::vector<std::vector<int>>{{0, 0}, {7}}));
  EXPECT_EQ(box.peek(), 7);
}

TEST_P(NestingFlatReads, PlainAndTrackedReadsOfOneBoxMeetAsStaleReRead) {
  // A parent's first child reads the box plain (no level holds an entry) and
  // merges that flat read into the parent. The parent's sibling then merges
  // a write of the box into the root, so the parent's second child resolves
  // the box through the root's entry: a tracked read. When it merges, the
  // parent holds the same box in two states — kStaleReRead. Re-reading
  // cannot cure it, so the child exhausts its retry budget and the conflict
  // surfaces in the parent, whose own retry reads the box tracked twice.
  Stm stm{config()};
  VBox<int> box{0};
  std::latch first_read{1};
  std::atomic<bool> first_parent_attempt{true};
  std::vector<ConflictKind> surfaced;
  std::vector<int> final_reads(2, -1);
  stm.run_top([&](Tx& tx) {
    tx.run_children({
        [&](Tx& parent) {
          const bool pin = first_parent_attempt.exchange(false);
          parent.run_children({[&](Tx& child) {
            final_reads[0] = box.read(child);
            if (pin) first_read.count_down();
          }});
          if (pin) await_child_commits(stm, 2);  // the first child and the sibling
          try {
            parent.run_children({[&](Tx& child) { final_reads[1] = box.read(child); }});
          } catch (const ConflictError& conflict) {
            surfaced.push_back(conflict.kind());
            throw;
          }
        },
        [&](Tx& sibling) {
          first_read.wait();
          box.write(sibling, 7);
        },
    });
  });
  EXPECT_EQ(surfaced, std::vector<ConflictKind>{ConflictKind::kStaleReRead});
  EXPECT_EQ(final_reads, (std::vector<int>{7, 7}));
  EXPECT_EQ(box.peek(), 7);
}

TEST_P(NestingFlatReads, FlatReadMergingAfterTrackedReadOfTheBoxIsStaleReRead) {
  // The mirror order: a child reads the box plain and parks; the parent's
  // sibling merges a write of it into the root; a second child resolves it
  // through that entry and merges first, so the parent tracks the box. The
  // parked child's flat read then meets the tracked one (kStaleReRead — the
  // parent has no writes, so kSiblingWrite cannot fire) and its retry reads
  // the sibling's value.
  Stm stm{config()};
  VBox<int> box{0};
  std::latch plain_read{1};
  // Values the reading child saw, one row per attempt. Its attempts run one
  // after another, each ordered after the last by the pool's queue.
  std::vector<std::vector<int>> observed;
  std::vector<int> tracked_read;
  int root_attempts = 0;
  stm.run_top([&](Tx& tx) {
    ++root_attempts;
    tx.run_children({
        [&](Tx& parent) {
          parent.run_children({
              [&](Tx& child) {
                const std::size_t attempt = observed.size();
                observed.push_back({box.read(child)});
                if (attempt == 0) {
                  plain_read.count_down();
                  await_child_commits(stm, 2);  // the sibling, then the tracked read
                }
              },
              [&](Tx& child) {
                await_child_commits(stm, 1);  // the sibling has merged
                tracked_read.push_back(box.read(child));
              },
          });
        },
        [&](Tx& sibling) {
          plain_read.wait();
          box.write(sibling, 7);
        },
    });
  });
  EXPECT_EQ(root_attempts, 1);
  EXPECT_EQ(stm.stats().aborts_sibling, 1u);
  EXPECT_EQ(observed, (std::vector<std::vector<int>>{{0}, {7}}));
  EXPECT_EQ(tracked_read, std::vector<int>{7});
  EXPECT_EQ(box.peek(), 7);
}

INSTANTIATE_TEST_SUITE_P(BothCommitStrategies, NestingFlatReads,
                         ::testing::Values(CommitStrategy::kGlobalLock,
                                           CommitStrategy::kLockFree),
                         [](const auto& info) {
                           return info.param == CommitStrategy::kGlobalLock
                                      ? std::string{"GlobalLock"}
                                      : std::string{"LockFree"};
                         });

}  // namespace
}  // namespace autopn::stm
