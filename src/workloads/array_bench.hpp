#pragma once
// The Array microbenchmark (paper §VII-A): nested transactions parallelize
// the access of top-level transactions to a large shared array of integers.
// A top-level transaction scans the entire array — partitioned across the
// currently configured number of child transactions — and updates a
// configurable fraction of the elements (the paper's variants update none,
// 0.01%, 50% and 90%).
//
// Because every transaction scans the whole array, any two concurrent
// top-level transactions conflict as soon as updates are present, while
// sibling children work on disjoint segments and never conflict with each
// other — the workload whose optimal configuration (few roots, many
// children) is the pessimum of scan-only workloads (paper Fig 1b).

#include <cstdint>
#include <functional>

#include "stm/containers.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace autopn::workloads {

struct ArrayConfig {
  std::size_t array_size = 1024;
  /// Probability that a scanned element is rewritten (0, 0.0001, 0.5, 0.9).
  double update_fraction = 0.0;
  std::uint64_t seed = 1;
};

class ArrayBenchmark {
 public:
  ArrayBenchmark(stm::Stm& stm, ArrayConfig config);

  /// Executes one top-level transaction: partition the array over the
  /// currently configured child limit, scan each segment in a child
  /// transaction, update elements with probability update_fraction, and
  /// fold the segment sums into a scan total.
  void run_one(util::Rng& rng);

  /// Runs `count` transactions back to back (driver helper).
  void run_many(std::size_t count, util::Rng& rng);

  /// Sum of the array outside any transaction (verification).
  [[nodiscard]] long long checksum() const;

  /// Total elements updated by committed transactions (verification: each
  /// update adds exactly 1 to its element, so checksum - initial == updates).
  [[nodiscard]] long long committed_updates() const;

  [[nodiscard]] const ArrayConfig& config() const noexcept { return config_; }

  /// Test seam: when set, runs at the start of every attempt of run_one's
  /// transaction, once the attempt holds its snapshot. Tests use it to pin
  /// concurrent attempts into overlapping (say, behind a latch).
  void set_attempt_hook(std::function<void()> hook) { attempt_hook_ = std::move(hook); }

 private:
  stm::Stm* stm_;
  ArrayConfig config_;
  stm::TArray<long long> data_;
  stm::VBox<long long> update_counter_;
  std::function<void()> attempt_hook_;
};

}  // namespace autopn::workloads
