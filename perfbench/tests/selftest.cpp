// Unit self-tests of the benchmark's own arithmetic: histogram percentiles,
// span self time, and the metric-name rule. Exit code 0 when all pass.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>

#include "histogram.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << '\n';
    ++failures;
  }
}

void expect_near(double got, double want, double rel, const std::string& what) {
  expect(std::abs(got - want) <= rel * std::abs(want),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

perfbench::Span span(std::int64_t start, std::int64_t end) {
  perfbench::Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void histogram_tests() {
  using perfbench::LogHistogram;
  LogHistogram empty;
  expect(empty.quantile(0.5) == 0.0, "empty histogram quantile is 0");

  // Small values are exact.
  LogHistogram small;
  for (std::uint64_t v = 1; v <= 20; ++v) small.record(v);
  expect_near(small.quantile(0.5), 10.0, 0.1, "p50 of 1..20");

  // 1..100000: every quantile within one bucket width (1/32).
  LogHistogram uniform;
  for (std::uint64_t v = 1; v <= 100000; ++v) uniform.record(v);
  expect(uniform.count() == 100000, "count");
  expect_near(uniform.quantile(0.50), 50000.0, 1.0 / 32, "p50 of 1..1e5");
  expect_near(uniform.quantile(0.99), 99000.0, 1.0 / 32, "p99 of 1..1e5");
  expect_near(uniform.quantile(0.01), 1000.0, 1.0 / 32, "p1 of 1..1e5");

  // A constant sits in its bucket; 99% at 1 us and 1% at 1 ms.
  LogHistogram bimodal;
  for (int i = 0; i < 990; ++i) bimodal.record(1000);
  for (int i = 0; i < 10; ++i) bimodal.record(1000000);
  expect_near(bimodal.quantile(0.5), 1000.0, 1.0 / 32, "bimodal p50");
  expect_near(bimodal.quantile(0.995), 1000000.0, 1.0 / 32, "bimodal p99.5");

  // Merge adds counts.
  LogHistogram merged = small;
  merged.merge(small);
  expect(merged.count() == 40, "merge adds counts");
  expect_near(merged.quantile(0.5), 10.0, 0.1, "merged p50");

  // Bucket bounds tile the value range.
  for (std::uint64_t v : {0ULL, 31ULL, 32ULL, 33ULL, 1000ULL, 123456789ULL, ~0ULL}) {
    const std::size_t i = LogHistogram::index_of(v);
    expect(i < LogHistogram::kBuckets, "index in range");
    expect(LogHistogram::lower_bound(i) <= v &&
               v - LogHistogram::lower_bound(i) < LogHistogram::width(i),
           "value " + std::to_string(v) + " inside its bucket");
  }
}

void self_time_tests() {
  using perfbench::fork_join_self_time;
  using perfbench::self_time;
  const auto parent = span(0, 100);
  expect(self_time(parent, {}) == 100, "no children: all self");
  expect(self_time(parent, {span(10, 30), span(50, 60)}) == 70, "disjoint children");
  expect(self_time(parent, {span(50, 60), span(10, 30)}) == 70, "order does not matter");
  expect(self_time(parent, {span(10, 40), span(20, 50)}) == 60, "overlap counts once");
  expect(self_time(parent, {span(-10, 20), span(90, 120)}) == 70, "clipped to the parent");
  expect(self_time(parent, {span(10, 20), span(12, 15)}) == 90, "nested child inside child");
  expect(fork_join_self_time(parent, {span(5, 45), span(5, 85), span(6, 30)}) == 20,
         "fork/join: minus the longest child");
}

void name_tests() {
  using perfbench::valid_name;
  for (const char* ok : {"ops_per_s", "stm.read_ns", "tpcc-routed", "short-disjoint",
                         "runtime.monitor_overhead_pct", "0x"}) {
    expect(valid_name(ok), std::string{"valid: "} + ok);
  }
  for (const char* bad : {"", ".hidden", "_x", "lat p50", "a/b", "ratio%"}) {
    expect(!valid_name(bad), std::string{"invalid: '"} + bad + "'");
  }
  expect(!valid_name(std::string(65, 'a')), "65 characters is too long");
  bool threw = false;
  try {
    (void)perfbench::result_json(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "a repeated metric name is refused");
  expect(perfbench::result_json(true, 3, 1, {{"x", 0.5, "s"}}) ==
             R"({"correct": true, "attempted": 3, "failed": 1, )"
             R"("metrics": {"x": {"value": 0.5, "unit": "s"}}})",
         "result JSON layout");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0 && perfbench::median({4.0, 1.0}) == 2.5,
         "median");
}

}  // namespace

int main() {
  histogram_tests();
  self_time_tests();
  name_tests();
  if (failures == 0) std::cout << "perfbench self-test: all passed\n";
  return failures == 0 ? 0 : 1;
}
