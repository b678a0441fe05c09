// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <short-disjoint|array-nested|tpcc-routed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>] [--inject-fault]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ladder and
// the tracing's own overhead. The last stdout line is the JSON result. A
// broken invariant is named on stderr and makes the exit code 1; bad
// arguments or a failed set-up exit 2 without a result; a run in which
// hypervisor steal spoilt most epochs exits 3 without a result. --inject-fault
// breaks one invariant on purpose (the benchmark's self-test). --epoch <i>
// runs epoch i alone and prints its record: an end-to-end run executes
// itself that way once per epoch.

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "report.hpp"
#include "rigs.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  bool inject_fault = false;
  int epoch = -1;  ///< >= 0: run only this epoch and print its record
};

struct Workload {
  std::function<std::unique_ptr<Rig>(std::uint64_t)> make;
  /// Traced-run roles beyond on/off/traced.
  std::vector<SegmentSpec> extra_roles;
};

const std::map<std::string, Workload>& workloads() {
  SegmentSpec single{"single"};
  single.drivers = 1;  // stm.scale_eff's 1-driver side
  SegmentSpec hop{"hop"};
  hop.layer_sampling = true;  // the direct share router.hop_us compares with
  static const std::map<std::string, Workload> table{
      {"short-disjoint", {make_short_disjoint, {single}}},
      {"array-nested", {make_array_nested, {}}},
      {"tpcc-routed", {make_tpcc_routed, {hop}}},
  };
  return table;
}

/// Measured seconds per epoch. An end-to-end run is --seconds of epochs,
/// each a fresh set-up in a fresh process (a process keeps its speed for its
/// whole life: runs of one process each differed by up to 30% in
/// lat_p99_us). Every figure is a median over the epochs, which a minority
/// of epochs slowed by steal below kMaxStealShare does not move (an
/// array-nested epoch at 1.7% steal read a p99 of 21 ms against ~7 ms). A
/// traced run cycles its roles (one epoch each) for --seconds in one
/// process, so paired epochs share it.
constexpr double kEpochSeconds = 1.0;
/// Unmeasured closed-loop time after each set-up.
constexpr double kWarmupSeconds = 0.3;
/// An epoch in which more than this share of the machine's CPU time went to
/// other guests is not comparable with a calm one (the wire workload lost
/// 50-75% of its throughput at 12-21% steal; calm epochs read 0-2.5%): its
/// figures are left out. An end-to-end run replaces it with another epoch,
/// running at most kMaxEpochFactor times the epochs it wants; a run still
/// short of calm epochs then, or a traced run that lost more than half of its
/// epochs, ends without a result.
constexpr double kMaxStealShare = 0.05;
constexpr int kMaxEpochFactor = 4;
/// Spans each thread may keep in a traced run.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;
constexpr std::size_t kSpanThreads = 16;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--trace-file <path>] [--inject-fault]\nworkloads:";
  for (const auto& [name, workload] : workloads()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      args.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-file") {
        args.trace_file = value;
      } else if (flag == "--epoch") {
        args.epoch = std::stoi(value);
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (workloads().count(args.workload) == 0) usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds >= 1.0 && args.seconds <= 600.0)) usage("--seconds must be in [1, 600]");
  return args;
}

/// Per-layer numbers folded from the spans, each the median over the
/// traced operations (0 when the workload has no such span).
struct SpanLadder {
  double op_self_us = 0.0;
  double read_ns = 0.0;
  double nested_read_ns = 0.0;
  double children_self_us = 0.0;
  double child_start_us = 0.0;
  double handler_us = 0.0;
  std::map<SpanKind, double> tpcc_us;
};

SpanLadder fold_spans(const std::vector<Span>& spans) {
  std::vector<double> op_self, read, nested_read, children_self, child_start, handler;
  std::map<SpanKind, std::vector<double>> tpcc;
  for (std::size_t lo = 0; lo < spans.size();) {
    std::size_t hi = lo;
    while (hi < spans.size() && spans[hi].op == spans[lo].op) ++hi;
    std::vector<Span> bodies, forks, children;
    for (std::size_t i = lo; i < hi; ++i) {
      const Span& s = spans[i];
      switch (s.kind) {
        case SpanKind::kBody: bodies.push_back(s); break;
        case SpanKind::kChildren: forks.push_back(s); break;
        case SpanKind::kChild: children.push_back(s); break;
        case SpanKind::kReadLoop:
          if (s.items > 0) read.push_back(static_cast<double>(s.duration()) / s.items);
          break;
        case SpanKind::kChildReadLoop:
          if (s.items > 0) nested_read.push_back(static_cast<double>(s.duration()) / s.items);
          break;
        case SpanKind::kHandler: handler.push_back(s.duration() * 1e-3); break;
        case SpanKind::kNewOrder:
        case SpanKind::kPayment:
        case SpanKind::kOrderStatus:
        case SpanKind::kDelivery:
        case SpanKind::kStockLevel: tpcc[s.kind].push_back(s.duration() * 1e-3); break;
        default: break;
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      if (spans[i].kind == SpanKind::kOp) {
        op_self.push_back(self_time(spans[i], bodies) * 1e-3);
      }
    }
    for (const Span& fork : forks) {
      std::vector<Span> mine;
      for (const Span& c : children) {
        if (c.start_ns >= fork.start_ns && c.start_ns <= fork.end_ns) {
          mine.push_back(c);
          child_start.push_back((c.start_ns - fork.start_ns) * 1e-3);
        }
      }
      if (!mine.empty()) children_self.push_back(fork_join_self_time(fork, mine) * 1e-3);
    }
    lo = hi;
  }
  SpanLadder ladder;
  ladder.op_self_us = median(op_self);
  ladder.read_ns = median(read);
  ladder.nested_read_ns = median(nested_read);
  ladder.children_self_us = median(children_self);
  ladder.child_start_us = median(child_start);
  ladder.handler_us = median(handler);
  for (auto& [kind, values] : tpcc) ladder.tpcc_us[kind] = median(values);
  return ladder;
}

struct Outcome {
  bool correct = true;
  std::uint64_t checks = 0;  ///< invariant checks evaluated, over all epochs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int epochs = 0;
  int stolen = 0;           ///< epochs left out for hypervisor steal
  bool comparable = true;   ///< false: too many were, the run has no result
  std::vector<Metric> metrics;

  /// Counts an epoch; true when steal spoilt it and its figures are left out.
  bool count_epoch(int index, double steal_share) {
    ++epochs;
    if (steal_share <= kMaxStealShare) return false;
    ++stolen;
    std::cout << "epoch " << index << " left out: steal took " << 100.0 * steal_share
              << "% of CPU time\n";
    return true;
  }
};

/// One epoch: a fresh set-up, an unmeasured warm-up, one measured segment,
/// and the invariant checks on the state it left.
struct Epoch {
  double setup_s = 0.0;
  SegmentResult segment;
  LayerReport layers;
  std::uint64_t windows = 0;
  double window_s = 0.0;
  double steal_share = 0.0;  ///< of the machine's CPU time over the whole epoch
  bool stolen = false;       ///< left out for it (Outcome::count_epoch)
};

Epoch run_epoch(const Args& args, int index, const SegmentSpec& spec, Tracer* tracer,
                Outcome& out) {
  // Every epoch draws its own inputs, all derived from --seed.
  const std::uint64_t seed = args.seed * 1000 + static_cast<std::uint64_t>(index);
  Epoch epoch;
  if (tracer != nullptr) tracer->forget_threads();  // the last epoch's threads are gone
  const HostTicks host0 = host_ticks();
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<Rig> rig = workloads().at(args.workload).make(seed);
  epoch.setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  {
    Watcher watcher{rig->stm()};
    epoch.segment = run_closed_loop(*rig, watcher, tracer, seed, kWarmupSeconds, spec);
    epoch.windows = watcher.windows();
    epoch.window_s = watcher.window_seconds();
  }
  for (const Check& c : rig->finish(args.inject_fault)) {
    ++out.checks;
    if (c.ok) continue;
    std::cerr << "perfbench: invariant broken: " << c.name
              << (c.detail.empty() ? "" : " (" + c.detail + ")") << '\n';
    out.correct = false;
  }
  epoch.layers = rig->layers();
  rig.reset();
  out.attempted += epoch.segment.attempted + epoch.segment.unmeasured_attempted;
  out.failed += epoch.segment.failed + epoch.segment.unmeasured_failed;
  const HostTicks host1 = host_ticks();
  if (host1.total > host0.total && host1.steal >= host0.steal) {
    epoch.steal_share = static_cast<double>(host1.steal - host0.steal) /
                        static_cast<double>(host1.total - host0.total);
  }
  return epoch;
}

/// What one end-to-end epoch hands back from its own process.
struct EpochRecord {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  bool correct = false;
  double steal_share = 0.0;
  double peak_rss_mb = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t samples = 0;
};

constexpr const char* kRecordTag = "epoch-record";

/// The child's side of end_to_end: one epoch, its record on stdout.
int run_epoch_alone(const Args& args) {
  // A killed run (a timeout, say) takes its epoch down with it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  Outcome out;
  const Epoch epoch = run_epoch(args, args.epoch, {"slice", kEpochSeconds}, nullptr, out);
  const SegmentResult& s = epoch.segment;
  std::cout << std::setprecision(17) << kRecordTag << ' ' << epoch.setup_s << ' '
            << s.ops_per_s() << ' ' << s.cpu_s << ' ' << s.ok() << ' ' << out.attempted << ' '
            << out.failed << ' ' << out.checks << ' ' << out.correct << ' '
            << epoch.steal_share << ' ' << peak_rss_mb() << ' '
            << s.latency_ns.quantile(0.50) * 1e-3 << ' ' << s.latency_ns.quantile(0.99) * 1e-3
            << ' ' << s.latency_ns.count() << std::endl;
  return out.correct ? 0 : 1;
}

/// Runs epoch `index` in a fresh process of this binary, waits for it and
/// reads its record. Throws when the child ends without one.
EpochRecord run_epoch_process(const Args& args, int index) {
  std::vector<std::string> words{"/proc/self/exe", "--workload", args.workload, "--seed",
                                 std::to_string(args.seed), "--seconds", "1", "--trace",
                                 "0", "--epoch", std::to_string(index)};
  if (args.inject_fault) words.emplace_back("--inject-fault");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  char buf[4096];
  for (ssize_t n = 0; spawned == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid) {
    throw std::runtime_error("could not run epoch " + std::to_string(index));
  }

  EpochRecord r;
  bool found = false;
  std::istringstream lines{output};
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields{line};
    std::string tag;
    if (!(fields >> tag) || tag != kRecordTag) {
      std::cout << line << '\n';  // the child's own notes
      continue;
    }
    found = static_cast<bool>(fields >> r.setup_s >> r.ops_per_s >> r.cpu_s >> r.ok >>
                              r.attempted >> r.failed >> r.checks >> r.correct >>
                              r.steal_share >> r.peak_rss_mb >> r.p50_us >> r.p99_us >>
                              r.samples);
  }
  // Exit code 1 is a broken invariant, which the record carries.
  if (!found || !WIFEXITED(status) || WEXITSTATUS(status) > 1) {
    throw std::runtime_error("epoch " + std::to_string(index) + " ended without a record");
  }
  return r;
}

Outcome end_to_end(const Args& args) {
  Outcome out;
  std::vector<double> setups, rates, cpu_per_op, rss, p50, p99;
  std::uint64_t samples = 0;
  // An epoch spoilt by steal is replaced by another.
  const int wanted = std::max(1, static_cast<int>(std::lround(args.seconds / kEpochSeconds)));
  for (int e = 0; e < kMaxEpochFactor * wanted && out.epochs - out.stolen < wanted; ++e) {
    const EpochRecord r = run_epoch_process(args, e);
    out.checks += r.checks;
    out.correct = out.correct && r.correct;
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (out.count_epoch(e, r.steal_share)) continue;
    setups.push_back(r.setup_s);
    rates.push_back(r.ops_per_s);
    if (r.ok > 0) cpu_per_op.push_back(r.cpu_s * 1e6 / static_cast<double>(r.ok));
    rss.push_back(r.peak_rss_mb);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    samples += r.samples;
  }
  out.comparable = out.epochs - out.stolen == wanted;
  std::cout << "latency samples: " << samples << "; ops/s per epoch:";
  for (const double r : rates) std::cout << ' ' << r;
  std::cout << '\n';
  out.metrics = {
      {"ops_per_s", median(rates), "1/s"},
      {"lat_p50_us", median(p50), "us"},
      {"lat_p99_us", median(p99), "us"},
      {"cpu_us_per_op", median(cpu_per_op), "us"},
      {"ok_ratio",
       out.attempted > 0 ? static_cast<double>(out.attempted - out.failed) /
                               static_cast<double>(out.attempted)
                         : 0.0,
       "ratio"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", median(rss), "MiB"},
  };
  return out;
}

Outcome traced(const Args& args) {
  std::vector<SegmentSpec> roles{{"on"}, {"off"}, {"traced"}};
  roles[1].watcher = false;
  roles[2].traced = true;
  const auto& extra = workloads().at(args.workload).extra_roles;
  roles.insert(roles.end(), extra.begin(), extra.end());
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds / (kEpochSeconds * roles.size()))));

  Outcome out;
  Tracer tracer{kSpanThreads, kSpanCapacity};
  std::vector<Epoch> epochs;
  for (int r = 0; r < rounds; ++r) {
    for (SegmentSpec spec : roles) {
      spec.seconds = kEpochSeconds;
      const int index = static_cast<int>(epochs.size());
      epochs.push_back(run_epoch(args, index, spec, &tracer, out));
      epochs.back().stolen = out.count_epoch(index, epochs.back().steal_share);
    }
  }
  out.comparable = 2 * out.stolen <= out.epochs;
  const auto rate = [&](const std::string& role) {
    double ok = 0.0;
    double wall = 0.0;
    for (const Epoch& e : epochs) {
      if (e.stolen || e.segment.spec.role != role) continue;
      ok += static_cast<double>(e.segment.ok());
      wall += e.segment.wall_s;
    }
    return wall > 0.0 ? ok / wall : 0.0;
  };
  autopn::stm::StmStatsSnapshot d{};
  std::uint64_t windows = 0;
  double window_s = 0.0;
  // The wire layers' p50s are read in the hop epochs (the only ones with a
  // direct share) and reported as their median; router sheds add up over
  // every epoch.
  std::vector<double> queue_wait, service, accept, reply, wire, hop;
  double shed_local = 0.0;
  for (const Epoch& e : epochs) {
    shed_local += e.layers.router_shed_local;
    if (e.stolen) continue;
    const SegmentResult& s = e.segment;
    d.top_commits += s.stm_after.top_commits - s.stm_before.top_commits;
    d.top_aborts += s.stm_after.top_aborts - s.stm_before.top_aborts;
    d.top_escalations += s.stm_after.top_escalations - s.stm_before.top_escalations;
    windows += e.windows;
    window_s += e.window_s;
    if (!s.spec.layer_sampling) continue;
    queue_wait.push_back(e.layers.serve_queue_wait_us);
    service.push_back(e.layers.serve_service_us);
    accept.push_back(e.layers.net_accept_us);
    reply.push_back(e.layers.net_reply_us);
    wire.push_back(e.layers.net_wire_us);
    hop.push_back(e.layers.router_hop_us);
  }
  const double commits = static_cast<double>(d.top_commits);
  const double attempts = commits + static_cast<double>(d.top_aborts);
  const double on = rate("on");
  const double off = rate("off");
  const double with_trace = rate("traced");
  const double one = rate("single");
  const bool single = one > 0.0;
  const std::vector<Span> spans = tracer.collect();
  const SpanLadder ladder = fold_spans(spans);
  const auto tpcc = [&](SpanKind kind) {
    const auto it = ladder.tpcc_us.find(kind);
    return it == ladder.tpcc_us.end() ? 0.0 : it->second;
  };
  if (!args.trace_file.empty()) {
    std::ofstream file{args.trace_file};
    tracer.write_tsv(file);
  }
  std::cout << "spans: " << spans.size() << " kept, " << tracer.dropped()
            << " dropped; ops/s with the watcher " << on << ", without " << off
            << ", traced " << with_trace;
  if (single) std::cout << ", 1 driver " << one;
  std::cout << '\n';

  out.metrics = {
      {"stm.op_self_us", ladder.op_self_us, "us"},
      {"stm.scale_eff", single ? on / (2.0 * one) : 0.0, "ratio"},
      {"stm.read_ns", ladder.read_ns, "ns"},
      {"stm.nested_read_ns", ladder.nested_read_ns, "ns"},
      {"stm.children_self_us", ladder.children_self_us, "us"},
      {"stm.child_start_us", ladder.child_start_us, "us"},
      {"stm.attempts_per_op", commits > 0.0 ? attempts / commits : 0.0, "ratio"},
      {"stm.abort_ratio", attempts > 0.0 ? static_cast<double>(d.top_aborts) / attempts : 0.0,
       "ratio"},
      {"stm.escalations", static_cast<double>(d.top_escalations), "count"},
      {"runtime.monitor_overhead_pct", off > 0.0 ? 100.0 * (1.0 - on / off) : 0.0, "%"},
      {"runtime.window_ms", windows > 0 ? 1e3 * window_s / static_cast<double>(windows) : 0.0,
       "ms"},
      {"serve.queue_wait_us", median(queue_wait), "us"},
      {"serve.service_us", median(service), "us"},
      {"serve.handler_us", ladder.handler_us, "us"},
      {"tpcc.new_order_us", tpcc(SpanKind::kNewOrder), "us"},
      {"tpcc.payment_us", tpcc(SpanKind::kPayment), "us"},
      {"tpcc.order_status_us", tpcc(SpanKind::kOrderStatus), "us"},
      {"tpcc.delivery_us", tpcc(SpanKind::kDelivery), "us"},
      {"tpcc.stock_level_us", tpcc(SpanKind::kStockLevel), "us"},
      {"net.wire_us", median(wire), "us"},
      {"net.accept_us", median(accept), "us"},
      {"net.reply_us", median(reply), "us"},
      {"router.hop_us", median(hop), "us"},
      {"router.shed_local", shed_local, "count"},
      {"trace.overhead_pct", on > 0.0 ? 100.0 * (1.0 - with_trace / on) : 0.0, "%"},
  };
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Outcome out;
  try {
    if (args.epoch >= 0) return run_epoch_alone(args);
    out = args.trace ? traced(args) : end_to_end(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << '\n';
    return 2;
  }
  std::cout << "invariants: " << out.checks << " checks, "
            << (out.correct ? "all held" : "BROKEN (see stderr)") << '\n';
  std::cout << "epochs: " << out.epochs << ", " << out.stolen
            << " left out for hypervisor steal\n";
  if (!out.comparable) {
    std::cerr << "perfbench: hypervisor steal took more than " << 100.0 * kMaxStealShare
              << "% of CPU time in " << out.stolen << " of " << out.epochs
              << " epochs; the figures are not comparable, no result\n";
    return 3;
  }
  for (const Metric& m : out.metrics) {
    std::cout << "metric " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  std::cout << "fail_ratio = "
            << (out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0.0)
            << " ratio (" << out.failed << " of " << out.attempted << " operations failed)\n";
  std::cout << result_json(out.correct, out.attempted, out.failed, out.metrics) << std::endl;
  return out.correct ? 0 : 1;
}
