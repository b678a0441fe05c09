#pragma once
// Fixed-size log-linear latency histogram owned by the benchmark harness.
//
// Values are non-negative integers (nanoseconds by convention). Values below
// 2^kSubBits land in exact buckets; above that each power of two is split into
// 2^kSubBits equal buckets, so a bucket is at most 1/32 (~3%) of its value
// wide. The bucket array is a fixed member: recording never allocates, which
// keeps the harness's own memory and CPU out of peak_rss_mb and
// cpu_us_per_op. Histograms merge by addition.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace perfbench {

class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t value) noexcept {
    ++buckets_[index_of(value)];
    ++count_;
  }

  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// The q-quantile (q in [0, 1]), interpolated linearly inside the bucket
  /// that holds the rank; 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double rank = q * static_cast<double>(count_);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = buckets_[i];
      if (n == 0) continue;
      if (static_cast<double>(below + n) >= rank) {
        const double frac = (rank - static_cast<double>(below)) / static_cast<double>(n);
        return static_cast<double>(lower_bound(i)) +
               frac * static_cast<double>(width(i));
      }
      below += n;
    }
    return static_cast<double>(lower_bound(kBuckets - 1));
  }

  [[nodiscard]] static std::size_t index_of(std::uint64_t value) noexcept {
    if (value < kSub) return static_cast<std::size_t>(value);
    const unsigned exp = static_cast<unsigned>(std::bit_width(value)) - 1;  // >= kSubBits
    const unsigned shift = exp - kSubBits;
    const std::uint64_t sub = (value >> shift) & (kSub - 1);
    return static_cast<std::size_t>((shift + 1) * kSub + sub);
  }

  [[nodiscard]] static std::uint64_t lower_bound(std::size_t index) noexcept {
    if (index < kSub) return index;
    const std::uint64_t shift = index / kSub - 1;
    return (kSub + index % kSub) << shift;
  }

  [[nodiscard]] static std::uint64_t width(std::size_t index) noexcept {
    if (index < kSub) return 1;
    return std::uint64_t{1} << (index / kSub - 1);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
