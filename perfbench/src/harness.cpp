#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "opt/baselines.hpp"
#include "runtime/monitor.hpp"

namespace perfbench {

namespace stm = autopn::stm;
namespace runtime = autopn::runtime;

namespace {

// Windows averaged into the change detector's reference, as tune_and_watch's
// default ControllerParams::reference_windows.
constexpr int kReferenceWindows = 3;

runtime::ControllerParams watch_params() {
  runtime::ControllerParams params;
  params.actuate = false;
  // Bounds how long stop() waits for the window in progress.
  params.max_window_seconds = 0.5;
  return params;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

// The optimizer is required by the controller but never consulted: watching
// measures windows and takes no tuning step.
Watcher::Watcher(stm::Stm& stm)
    : space_(static_cast<int>(stm.config().max_cores)),
      controller_(stm, std::make_unique<autopn::opt::RandomSearch>(space_, 1),
                  std::make_unique<runtime::CvAdaptivePolicy>(), clock_,
                  watch_params()) {}

Watcher::~Watcher() { stop(); }

void Watcher::start() {
  if (thread_.joinable()) return;
  stop_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void Watcher::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
}

void Watcher::loop() {
  double reference = 0.0;
  int reference_count = 0;
  while (!stop_.load()) {
    const runtime::Measurement m = controller_.measure_once();
    windows_.fetch_add(1);
    window_ns_.fetch_add(static_cast<std::uint64_t>(m.elapsed * 1e9));
    if (reference_count < kReferenceWindows) {
      reference += m.throughput;
      if (++reference_count == kReferenceWindows) {
        controller_.arm_change_detector(reference / kReferenceWindows);
      }
      continue;
    }
    if (controller_.check_for_change(m.throughput)) {
      // tune_and_watch would re-tune here; with actuation off the watcher
      // only re-anchors the detector, as it does after a tuning round.
      reference = 0.0;
      reference_count = 0;
    }
  }
}

HostTicks host_ticks() {
  // cpu  user nice system idle iowait irq softirq steal [guest guest_nice]
  std::ifstream stat{"/proc/stat"};
  std::string label;
  HostTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

struct alignas(64) DriverSlot {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unmeasured_attempted = 0;
  std::uint64_t unmeasured_failed = 0;
  LogHistogram latency_ns;
};

}  // namespace

SegmentResult run_closed_loop(Rig& rig, Watcher& watcher, Tracer* tracer, std::uint64_t seed,
                              double warmup_seconds, const SegmentSpec& spec) {
  const std::size_t drivers = rig.drivers();
  const std::size_t active = spec.drivers == 0 ? drivers : spec.drivers;
  std::vector<DriverSlot> slots(drivers);  // allocated before any driver starts
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(active);
  for (std::size_t d = 0; d < active; ++d) {
    threads.emplace_back([&, d] {
      autopn::util::Rng rng{seed * 0x9e3779b97f4a7c15ULL + d + 1};
      TraceSampler sampler{rig.trace_every()};
      DriverSlot& slot = slots[d];
      while (!stop.load(std::memory_order_relaxed)) {
        const OpTrace trace = sampler.next();
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = false;
        try {
          ok = rig.op(d, rng, trace);
        } catch (const std::exception& e) {
          if (slot.failed == 0) std::cerr << "operation failed: " << e.what() << '\n';
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (!measuring.load(std::memory_order_relaxed)) {
          ++slot.unmeasured_attempted;
          if (!ok) ++slot.unmeasured_failed;
          continue;
        }
        ++slot.attempted;
        if (ok) {
          slot.latency_ns.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
        } else {
          ++slot.failed;
        }
      }
    });
  }

  if (spec.watcher) watcher.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_seconds));

  SegmentResult r;
  r.spec = spec;
  g_tracer.store(spec.traced ? tracer : nullptr, std::memory_order_release);
  rig.set_layer_sampling(spec.layer_sampling);
  r.stm_before = rig.stm().stats();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  measuring.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.seconds));
  measuring.store(false);
  const auto t1 = std::chrono::steady_clock::now();
  r.cpu_s = process_cpu_seconds() - cpu0;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.stm_after = rig.stm().stats();
  g_tracer.store(nullptr, std::memory_order_release);
  rig.set_layer_sampling(false);

  watcher.stop();
  stop.store(true);
  for (auto& t : threads) t.join();
  for (const DriverSlot& slot : slots) {
    r.attempted += slot.attempted;
    r.failed += slot.failed;
    r.unmeasured_attempted += slot.unmeasured_attempted;
    r.unmeasured_failed += slot.unmeasured_failed;
    r.latency_ns.merge(slot.latency_ns);
  }
  return r;
}

}  // namespace perfbench
