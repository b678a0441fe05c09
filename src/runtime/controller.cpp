#include "runtime/controller.hpp"

#include <algorithm>
#include <chrono>

#include "util/failpoint.hpp"

namespace autopn::runtime {

namespace {

/// Floor of the sequential inter-commit gap the live adaptive timeout scales
/// from (see tune()).
constexpr double kMinReferenceGapSeconds = 1e-3;

}  // namespace

TuningController::TuningController(stm::Stm& stm,
                                   std::unique_ptr<opt::Optimizer> optimizer,
                                   std::unique_ptr<MonitorPolicy> policy,
                                   const util::Clock& clock, ControllerParams params)
    : stm_(&stm),
      optimizer_(std::move(optimizer)),
      policy_(std::move(policy)),
      clock_(&clock),
      params_(params),
      actuator_(stm) {
  actuator_.set_enabled(params_.actuate);
}

TuningController::~TuningController() { stm_->set_commit_callback(nullptr); }

Measurement TuningController::run_live_window() {
  using namespace std::chrono_literals;
  {
    std::scoped_lock lock{mutex_};
    pending_commits_.clear();
  }
  // Discard request latencies recorded before this window started.
  if (latency_source_ != nullptr) (void)latency_source_->drain_latencies();
  // Install the probe for the duration of this window.
  auto callback = std::make_shared<const std::function<void()>>([this] {
    // Chaos hook: swallow the commit event before it reaches the monitor —
    // the window then only ends by timeout, which is exactly the stall the
    // watchdog exists to detect.
    AUTOPN_FAILPOINT("runtime.monitor.drop_commit", return);
    {
      std::scoped_lock lock{mutex_};
      pending_commits_.push_back(clock_->now());
    }
    cv_.notify_one();
  });
  stm_->set_commit_callback(callback);

  const double start = clock_->now();
  policy_->begin_window(start);
  const double hard_cap =
      params_.max_window_seconds > 0.0 ? start + params_.max_window_seconds : 1e18;

  Measurement result;
  bool done = false;
  while (!done) {
    double commit_at = 0.0;
    bool have_commit = false;
    {
      std::unique_lock lock{mutex_};
      cv_.wait_for(lock, 2ms, [this] { return !pending_commits_.empty(); });
      if (!pending_commits_.empty()) {
        commit_at = pending_commits_.front();
        pending_commits_.pop_front();
        have_commit = true;
      }
    }
    const double now = clock_->now();
    const auto deadline = policy_->deadline();
    if (have_commit) {
      if (deadline.has_value() && commit_at > *deadline) {
        result = policy_->finish(*deadline, /*timed_out=*/true);
        done = true;
      } else if (policy_->on_commit(commit_at)) {
        result = policy_->finish(commit_at, /*timed_out=*/false);
        done = true;
      }
    } else if (deadline.has_value() && now > *deadline) {
      result = policy_->finish(*deadline, /*timed_out=*/true);
      done = true;
    }
    if (!done && now > hard_cap) {
      result = policy_->finish(now, /*timed_out=*/true);
      done = true;
    }
  }
  stm_->set_commit_callback(nullptr);
  if (latency_source_ != nullptr) {
    // Request latencies trump the policy's commit-to-commit gap estimate.
    if (auto samples = latency_source_->drain_latencies(); !samples.empty()) {
      attach_latency_samples(result, std::move(samples));
    }
  }
  note_window(result);
  return result;
}

void TuningController::note_window(const Measurement& measurement) {
  if (measurement.commits > 0) {
    // The configuration demonstrably makes progress: remember it as the
    // revert target and clear any stall streak.
    watchdog_.has_last_known_good = true;
    watchdog_.last_known_good = actuator_.current();
    stall_streak_ = 0;
    return;
  }
  if (!measurement.timed_out) return;
  ++watchdog_.stalled_windows;
  if (params_.watchdog_stall_windows == 0) return;
  if (++stall_streak_ < params_.watchdog_stall_windows) return;
  stall_streak_ = 0;
  if (!watchdog_.has_last_known_good) return;  // nothing safe to revert to
  const opt::Config from = actuator_.current();
  actuator_.apply(watchdog_.last_known_good);
  ++watchdog_.reverts;
  watchdog_.events.push_back(
      WatchdogEvent{clock_->now(), from, watchdog_.last_known_good});
}

Measurement TuningController::measure_once() { return run_live_window(); }

double TuningController::kpi_of(const Measurement& measurement,
                                const stm::StmStatsSnapshot& before,
                                const stm::StmStatsSnapshot& after) const {
  switch (params_.kpi) {
    case KpiKind::kThroughput:
      return measurement.throughput;
    case KpiKind::kLatency:
      // Inverse mean latency, as a maximization value. With a LatencySource
      // attached this is real request latency (queueing + execution); without
      // one it degrades to inverse mean commit-to-commit gap, which orders
      // identically to throughput on steady windows.
      if (measurement.mean_latency > 0.0) return 1.0 / measurement.mean_latency;
      return measurement.commits > 0 && measurement.elapsed > 0.0
                 ? static_cast<double>(measurement.commits) / measurement.elapsed
                 : 0.0;
    case KpiKind::kAbortRate: {
      const auto commits = after.top_commits - before.top_commits;
      const auto aborts = after.top_aborts - before.top_aborts;
      const double attempts = static_cast<double>(commits + aborts);
      // Commit efficiency in [0, 1]; 1 = no aborts. Zero-commit windows are
      // worthless configurations.
      return commits > 0 && attempts > 0.0
                 ? static_cast<double>(commits) / attempts
                 : 0.0;
    }
  }
  return measurement.throughput;
}

TuningReport TuningController::tune() {
  TuningReport report;
  opt::Config best_live_config{};
  double best_live_kpi = 0.0;
  while (auto proposal = optimizer_->propose()) {
    // Model veto: once a live incumbent exists, compare the advisor's
    // prediction at the proposal with its prediction at that incumbent —
    // a model-relative test, so the advisor's absolute scale cancels.
    if (advisor_ != nullptr && params_.model_veto_band > 0.0 &&
        best_live_kpi > 0.0) {
      const double pred_ref = advisor_->predicted_kpi(best_live_config);
      const double pred_prop = advisor_->predicted_kpi(*proposal);
      if (pred_ref > 0.0) {
        const double ratio = pred_prop / pred_ref;
        if (ratio < 1.0 - params_.model_veto_band) {
          ++veto_.flagged;
          veto_.events.push_back(VetoEvent{clock_->now(), *proposal,
                                           best_live_config, ratio,
                                           params_.model_veto_blocks});
          if (params_.model_veto_blocks) {
            // Answer with a calibrated prediction (live scale x predicted
            // ratio) instead of burning a window. Always below the incumbent
            // (ratio < 1), so a synthetic KPI can never *win* the search.
            ++veto_.blocked;
            optimizer_->observe(*proposal, best_live_kpi * ratio);
            continue;
          }
        }
      }
    }
    actuator_.apply(*proposal);
    const stm::StmStatsSnapshot before = stm_->stats();
    const Measurement m = run_live_window();
    const stm::StmStatsSnapshot after = stm_->stats();
    const double kpi = kpi_of(m, before, after);
    report.tuning_seconds += m.elapsed;
    ++report.explorations;
    optimizer_->observe(*proposal, kpi);
    report.observations.push_back(opt::Observation{*proposal, kpi});
    if (kpi > best_live_kpi) {
      best_live_kpi = kpi;
      best_live_config = *proposal;
    }

    // Learn the adaptive-timeout reference from the sequential configuration
    // (always part of AutoPN's biased initial samples). Live commit gaps
    // below a millisecond measure thread scheduling, not the configuration:
    // from a faster reference the timeout would cut every window whose
    // drivers sit out one scheduler time slice, healthy or not.
    if (proposal->t == 1 && proposal->c == 1 && m.throughput > 0.0) {
      const double reference = std::min(m.throughput, 1.0 / kMinReferenceGapSeconds);
      if (auto* adaptive = dynamic_cast<CvAdaptivePolicy*>(policy_.get())) {
        adaptive->set_reference_throughput(reference);
      } else if (auto* wpnoc = dynamic_cast<WpnocPolicy*>(policy_.get())) {
        wpnoc->set_reference_throughput(reference);
      }
    }
  }
  report.chosen = optimizer_->best();
  actuator_.apply(report.chosen);
  arm_change_detector(0.0);  // caller re-arms with a steady-state sample
  return report;
}

std::size_t TuningController::tune_and_watch(
    const std::function<std::unique_ptr<opt::Optimizer>()>& make_optimizer,
    double duration_seconds) {
  const double end_time = clock_->now() + duration_seconds;
  cusum_ = CusumDetector{params_.cusum_drift, params_.cusum_threshold};
  std::size_t rounds = 0;
  for (;;) {
    optimizer_ = make_optimizer();
    (void)tune();
    ++rounds;
    // Arm the detector on an averaged steady-state level of the chosen
    // configuration (single windows are too noisy to anchor on).
    double reference = 0.0;
    std::size_t reference_count = 0;
    for (std::size_t i = 0; i < std::max<std::size_t>(1, params_.reference_windows);
         ++i) {
      const Measurement steady = run_live_window();
      if (steady.throughput > 0.0) {
        reference += steady.throughput;
        ++reference_count;
      }
    }
    arm_change_detector(reference_count > 0 ? reference / reference_count : 0.0);
    // Watch until a change fires or time runs out.
    bool changed = false;
    while (!changed && clock_->now() < end_time) {
      const Measurement sample = run_live_window();
      changed = check_for_change(sample.throughput);
    }
    if (!changed) return rounds;
  }
}

}  // namespace autopn::runtime
