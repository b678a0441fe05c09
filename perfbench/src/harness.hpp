#pragma once
// The closed-loop harness shared by every workload: driver threads that each
// run one operation after another while AutoPN watches the Stm, with the
// measured segment's counters kept in memory allocated before the drivers
// start.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "histogram.hpp"
#include "opt/config_space.hpp"
#include "runtime/controller.hpp"
#include "stm/stm.hpp"
#include "trace.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// One named invariant and whether it held.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Per-layer numbers a workload measures itself (wire, router, serve).
struct LayerReport {
  double serve_queue_wait_us = 0.0;
  double serve_service_us = 0.0;
  double net_accept_us = 0.0;
  double net_reply_us = 0.0;
  double net_wire_us = 0.0;
  double router_hop_us = 0.0;
  double router_shed_local = 0.0;
};

/// A workload under test: the state built at set-up plus its operation.
class Rig {
 public:
  virtual ~Rig() = default;

  /// Closed-loop driver threads.
  [[nodiscard]] virtual std::size_t drivers() const = 0;
  /// Trace every N-th operation of each driver.
  [[nodiscard]] virtual std::uint64_t trace_every() const = 0;
  /// One operation by driver `driver`; false when it failed. Throwing also
  /// counts as a failure.
  virtual bool op(std::size_t driver, autopn::util::Rng& rng, const OpTrace& trace) = 0;
  /// The Stm AutoPN watches.
  [[nodiscard]] virtual autopn::stm::Stm& stm() = 0;
  /// Starts or stops the rig's own per-layer sampling (traced segments).
  virtual void set_layer_sampling(bool /*on*/) {}
  /// Drivers have stopped: quiesce, optionally break one invariant on
  /// purpose (`inject_fault`, the benchmark's self-test), and check them all.
  [[nodiscard]] virtual std::vector<Check> finish(bool inject_fault) = 0;
  /// Per-layer numbers, valid after finish().
  [[nodiscard]] virtual LayerReport layers() const { return {}; }
};

/// AutoPN in watch mode: the TuningController measures one monitor window
/// after another on the live commit stream and feeds the change detector,
/// with actuation off — the steady phase of tune_and_watch with the
/// configuration pinned (the paper's §VII-E set-up).
class Watcher {
 public:
  explicit Watcher(autopn::stm::Stm& stm);
  ~Watcher();

  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  void start();
  /// Blocks until the window in progress completes.
  void stop();

  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_.load(); }
  [[nodiscard]] double window_seconds() const noexcept {
    return static_cast<double>(window_ns_.load()) * 1e-9;
  }

 private:
  void loop();

  autopn::util::WallClock clock_;
  autopn::opt::ConfigSpace space_;
  autopn::runtime::TuningController controller_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> window_ns_{0};
  std::thread thread_;
};

/// What a measured segment runs with.
struct SegmentSpec {
  std::string role;  ///< "slice", or a traced run's "on", "off", "traced", ...
  double seconds = 1.0;
  bool watcher = true;
  bool traced = false;
  bool layer_sampling = false;  ///< Rig::set_layer_sampling while measured
  std::size_t drivers = 0;      ///< active drivers; 0 = all
};

/// Counters of one measured segment, summed over drivers.
struct SegmentResult {
  SegmentSpec spec;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process user+sys over the segment
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Operations in the warm-up and while the loop stops: not timed, but
  /// their failures count.
  std::uint64_t unmeasured_attempted = 0;
  std::uint64_t unmeasured_failed = 0;
  LogHistogram latency_ns;  ///< successful operations
  autopn::stm::StmStatsSnapshot stm_before;
  autopn::stm::StmStatsSnapshot stm_after;

  [[nodiscard]] std::uint64_t ok() const noexcept { return attempted - failed; }
  [[nodiscard]] double ops_per_s() const noexcept {
    return wall_s > 0.0 ? static_cast<double>(ok()) / wall_s : 0.0;
  }
};

/// Runs the rig's drivers in a closed loop with the watcher as `spec` says:
/// `warmup_seconds` unmeasured, then the measured segment, with tracing into
/// `tracer` when `spec.traced`. Stops the watcher (while the drivers still
/// commit, so its last window completes) and then the drivers.
[[nodiscard]] SegmentResult run_closed_loop(Rig& rig, Watcher& watcher, Tracer* tracer,
                                            std::uint64_t seed, double warmup_seconds,
                                            const SegmentSpec& spec);

/// The aggregate `cpu` line of /proc/stat: all CPU time so far and its
/// steal share, in clock ticks; zeros where /proc/stat cannot be read.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] HostTicks host_ticks();

/// Process user+sys CPU seconds so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
