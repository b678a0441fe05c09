// short-disjoint: the runtime's fixed per-attempt costs (t-gate, phase share,
// snapshot acquire, tree-gate allocation, commit, monitor hook) dominate —
// each transaction touches at most 18 boxes of an L2-resident partition that
// no other thread writes.

#include <array>
#include <string>

#include "rigs.hpp"
#include "stm/containers.hpp"

namespace perfbench {

namespace stm = autopn::stm;

namespace {

constexpr std::size_t kDrivers = 2;
constexpr std::size_t kPartition = 1024;
constexpr int kReadOnlyReads = 16;
constexpr int kUpdateReads = 8;
constexpr int kUpdateWrites = 2;

stm::StmConfig stm_config() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  cfg.pool_threads = 1;  // unused: no transaction spawns children
  cfg.initial_top = kDrivers;
  cfg.initial_children = 1;
  return cfg;
}

class ShortDisjoint final : public Rig {
 public:
  explicit ShortDisjoint(std::uint64_t seed) : stm_(stm_config()) {
    autopn::util::Rng rng{seed};
    for (std::size_t p = 0; p < kDrivers; ++p) {
      // Each box starts at an even value, so the partition sum stays even.
      partitions_[p] = std::make_unique<stm::TArray<long long>>(kPartition, 0LL);
      long long sum = 0;
      stm_.run_top([&](stm::Tx& tx) {
        sum = 0;
        for (std::size_t i = 0; i < kPartition; ++i) {
          const long long v = 2 * static_cast<long long>(rng.uniform_index(1000));
          partitions_[p]->write(tx, i, v);
          sum += v;
        }
      });
      initial_sum_[p] = sum;
    }
  }

  [[nodiscard]] std::size_t drivers() const override { return kDrivers; }
  [[nodiscard]] std::uint64_t trace_every() const override { return 64; }
  [[nodiscard]] stm::Stm& stm() override { return stm_; }

  bool op(std::size_t driver, autopn::util::Rng& rng, const OpTrace& trace) override {
    const stm::TArray<long long>& part = *partitions_[driver];
    std::array<std::size_t, kReadOnlyReads> idx{};
    if (rng.bernoulli(0.5)) {
      for (auto& i : idx) i = rng.uniform_index(kPartition);
      ScopedSpan op_span{trace, SpanKind::kOp, SpanKind::kNone};
      const long long sum = stm_.read_only<long long>([&](stm::Tx& tx) {
        ScopedSpan body{trace, SpanKind::kBody, SpanKind::kOp};
        ScopedSpan reads{trace, SpanKind::kReadLoop, SpanKind::kBody, kReadOnlyReads};
        long long s = 0;
        for (const std::size_t i : idx) s += part.read(tx, i);
        return s;
      });
      return sum >= 0;  // boxes only grow from non-negative values
    }
    for (int k = 0; k < kUpdateReads + kUpdateWrites; ++k) {
      idx[static_cast<std::size_t>(k)] = rng.uniform_index(kPartition);
    }
    long long sum = 0;
    {
      ScopedSpan op_span{trace, SpanKind::kOp, SpanKind::kNone};
      stm_.run_top([&](stm::Tx& tx) {
        ScopedSpan body{trace, SpanKind::kBody, SpanKind::kOp};
        {
          ScopedSpan reads{trace, SpanKind::kReadLoop, SpanKind::kBody, kUpdateReads};
          sum = 0;
          for (int k = 0; k < kUpdateReads; ++k) {
            sum += part.read(tx, idx[static_cast<std::size_t>(k)]);
          }
        }
        for (int k = kUpdateReads; k < kUpdateReads + kUpdateWrites; ++k) {
          const std::size_t i = idx[static_cast<std::size_t>(k)];
          part.write(tx, i, part.read(tx, i) + 1);
        }
      });
    }
    ++updates_[driver].n;  // committed: run_top returned
    return sum >= 0;
  }

  std::vector<Check> finish(bool inject_fault) override {
    if (inject_fault) {
      // An update outside the counted ones: the partition sum then exceeds
      // 2 x committed updates by one.
      stm_.run_top([&](stm::Tx& tx) {
        partitions_[0]->write(tx, 0, partitions_[0]->read(tx, 0) + 1);
      });
    }
    std::vector<Check> checks;
    for (std::size_t p = 0; p < kDrivers; ++p) {
      long long sum = 0;
      for (std::size_t i = 0; i < kPartition; ++i) sum += partitions_[p]->peek(i);
      const long long expected = initial_sum_[p] + kUpdateWrites * updates_[p].n;
      checks.push_back(Check{"partition_sum_is_2x_updates[" + std::to_string(p) + "]",
                             sum == expected,
                             "sum - initial = " + std::to_string(sum - initial_sum_[p]) +
                                 ", committed updates = " + std::to_string(updates_[p].n)});
    }
    return checks;
  }

 private:
  struct alignas(64) Counter {
    long long n = 0;
  };

  stm::Stm stm_;
  std::array<std::unique_ptr<stm::TArray<long long>>, kDrivers> partitions_;
  std::array<long long, kDrivers> initial_sum_{};
  std::array<Counter, kDrivers> updates_{};  // written only by its driver
};

}  // namespace

std::unique_ptr<Rig> make_short_disjoint(std::uint64_t seed) {
  return std::make_unique<ShortDisjoint>(seed);
}

}  // namespace perfbench
