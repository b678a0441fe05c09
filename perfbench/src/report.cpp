#include "report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) return false;
  return std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_' || ch == '.' ||
           ch == '-';
  });
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::set<std::string> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    char value[40];
    // A non-finite value is not JSON; it can only come from an empty phase.
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
