#pragma once
// Metric records and the benchmark's one-line JSON result.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// True for names the result may carry: 1-64 of [A-Za-z0-9_.-], starting
/// with a letter or digit.
[[nodiscard]] bool valid_name(std::string_view name);

/// Median of `values` (0 for none).
[[nodiscard]] double median(std::vector<double> values);

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}` with
/// every value at full precision. Throws std::invalid_argument on an
/// invalid or repeated name.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
