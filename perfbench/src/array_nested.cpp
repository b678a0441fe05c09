// array-nested: nested reads and child spawn/hand-off/merge dominate; the
// top-level entry and commit are paid once per 16,384 reads.
//
// The scan is workloads::ArrayBenchmark::run_one's transaction (same
// segmentation over the child limit, same per-child update draws, same
// update counter) written out here so the benchmark's spans can bracket the
// run_children call, each child body and each child's read loop.

#include <functional>
#include <string>

#include "rigs.hpp"
#include "stm/containers.hpp"

namespace perfbench {

namespace stm = autopn::stm;

namespace {

constexpr std::size_t kArraySize = 16384;
constexpr double kUpdateFraction = 0.0001;  // the paper's 0.01% variant
constexpr std::size_t kChildren = 4;

stm::StmConfig stm_config() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  // 1 driver + 3 pool threads = the 4 cores; the driver helps run children
  // while it waits in run_children.
  cfg.pool_threads = kChildren - 1;
  cfg.initial_top = 1;
  cfg.initial_children = kChildren;
  return cfg;
}

class ArrayNested final : public Rig {
 public:
  explicit ArrayNested(std::uint64_t seed)
      : stm_(stm_config()), data_(kArraySize, 0LL), updates_(0LL) {
    autopn::util::Rng rng{seed};
    stm_.run_top([&](stm::Tx& tx) {
      initial_sum_ = 0;
      for (std::size_t i = 0; i < kArraySize; ++i) {
        const auto v = static_cast<long long>(rng.uniform_index(1000));
        data_.write(tx, i, v);
        initial_sum_ += v;
      }
    });
  }

  [[nodiscard]] std::size_t drivers() const override { return 1; }
  [[nodiscard]] std::uint64_t trace_every() const override { return 1; }
  [[nodiscard]] stm::Stm& stm() override { return stm_; }

  bool op(std::size_t /*driver*/, autopn::util::Rng& rng, const OpTrace& trace) override {
    const std::uint64_t tx_seed = rng();
    long long total = 0;
    ScopedSpan op_span{trace, SpanKind::kOp, SpanKind::kNone};
    stm_.run_top([&](stm::Tx& tx) {
      ScopedSpan body{trace, SpanKind::kBody, SpanKind::kOp};
      const std::size_t segments = stm_.child_limit();
      const std::size_t chunk = (kArraySize + segments - 1) / segments;
      std::vector<long long> sums(segments, 0);
      std::vector<long long> updates(segments, 0);
      std::vector<std::function<void(stm::Tx&)>> children;
      children.reserve(segments);
      for (std::size_t s = 0; s < segments; ++s) {
        children.emplace_back([&, s](stm::Tx& child) {
          ScopedSpan child_span{trace, SpanKind::kChild, SpanKind::kChildren};
          autopn::util::Rng child_rng{tx_seed ^ (0x9e3779b97f4a7c15ULL * (s + 1))};
          const std::size_t lo = s * chunk;
          const std::size_t hi = std::min(kArraySize, lo + chunk);
          ScopedSpan reads{trace, SpanKind::kChildReadLoop, SpanKind::kChild,
                           static_cast<std::uint32_t>(hi - lo)};
          long long sum = 0;
          long long n = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const long long value = data_.read(child, i);
            sum += value;
            if (child_rng.bernoulli(kUpdateFraction)) {
              data_.write(child, i, value + 1);
              ++n;
            }
          }
          sums[s] = sum;
          updates[s] = n;
        });
      }
      {
        ScopedSpan fork{trace, SpanKind::kChildren, SpanKind::kBody,
                        static_cast<std::uint32_t>(segments)};
        tx.run_children(std::move(children));
      }
      total = 0;
      long long n = 0;
      for (std::size_t s = 0; s < segments; ++s) {
        total += sums[s];
        n += updates[s];
      }
      if (n > 0) updates_.write(tx, updates_.read(tx) + n);
    });
    return total >= initial_sum_;  // elements only grow
  }

  std::vector<Check> finish(bool inject_fault) override {
    if (inject_fault) {
      // An element update the counter does not record.
      stm_.run_top([&](stm::Tx& tx) { data_.write(tx, 0, data_.read(tx, 0) + 1); });
    }
    long long sum = 0;
    for (std::size_t i = 0; i < kArraySize; ++i) sum += data_.peek(i);
    const long long committed = updates_.peek();
    return {Check{"checksum_minus_initial_is_updates", sum - initial_sum_ == committed,
                  "checksum - initial = " + std::to_string(sum - initial_sum_) +
                      ", committed updates = " + std::to_string(committed)}};
  }

 private:
  stm::Stm stm_;
  stm::TArray<long long> data_;
  stm::VBox<long long> updates_;
  long long initial_sum_ = 0;
};

}  // namespace

std::unique_ptr<Rig> make_array_nested(std::uint64_t seed) {
  return std::make_unique<ArrayNested>(seed);
}

}  // namespace perfbench
