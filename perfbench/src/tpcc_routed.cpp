// tpcc-routed: per-request wire, the router hop, the admission queue,
// container predicates and real conflicts dominate. Two closed-loop client
// connections (one thread each) -> in-process Router -> one shard NetServer
// -> ServeEngine (2 workers) -> TPC-C handler at t=2, c=2. Payment conflicts
// on the 4 warehouses; New-Order lines and Delivery districts run as
// children.

#include <array>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "rigs.hpp"
#include "router/router.hpp"
#include "serve/engine.hpp"
#include "workloads/tpcc.hpp"

namespace perfbench {

namespace stm = autopn::stm;
namespace net = autopn::net;
namespace serve = autopn::serve;
namespace workloads = autopn::workloads;
namespace router = autopn::router;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr double kCallTimeoutSeconds = 5.0;
constexpr auto kReadyTimeout = std::chrono::seconds{10};
/// In hop segments one call in this many goes straight to the shard: the
/// direct share that router.hop_us and net.wire_us are measured against.
constexpr std::uint64_t kDirectEvery = 4;
/// Stock-Level threshold, as TpccBenchmark::run_one.
constexpr int kStockThreshold = 900;

stm::StmConfig stm_config() {
  stm::StmConfig cfg;
  cfg.max_cores = 4;
  cfg.pool_threads = 2;
  cfg.initial_top = kWorkers;
  cfg.initial_children = 2;
  return cfg;
}

serve::ServeConfig serve_config(std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.seed = seed;
  return cfg;
}

router::RouterConfig router_config() {
  router::RouterConfig cfg;
  cfg.backoff.attempt_timeout_seconds = 0.5;
  cfg.backoff.initial_backoff_seconds = 0.005;
  cfg.rebalance_enabled = false;  // one shard: nothing to place
  return cfg;
}

double us(double seconds) { return seconds * 1e6; }

class TpccRouted final : public Rig {
 public:
  explicit TpccRouted(std::uint64_t seed)
      : stm_(stm_config()),
        tpcc_(stm_, tpcc_config(seed)),
        engine_(stm_, [this](autopn::util::Rng& rng) { handle(rng); }, clock_,
                serve_config(seed)),
        shard_(engine_, {}),
        router_({router::ShardAddress{0, "127.0.0.1", shard_.port()}}, router_config()) {
    wait_until_ready();
    for (std::size_t d = 0; d < kClients; ++d) {
      via_[d] = net::Client::connect("127.0.0.1", router_.port());
      direct_[d] = net::Client::connect("127.0.0.1", shard_.port());
    }
  }

  [[nodiscard]] std::size_t drivers() const override { return kClients; }
  [[nodiscard]] std::uint64_t trace_every() const override { return 1; }
  [[nodiscard]] stm::Stm& stm() override { return stm_; }
  void set_layer_sampling(bool on) override { hop_share_.store(on); }

  bool op(std::size_t d, autopn::util::Rng& /*rng*/, const OpTrace& trace) override {
    PerClient& c = clients_[d];
    const bool sampling = hop_share_.load(std::memory_order_relaxed);
    const bool direct = sampling && c.calls++ % kDirectEvery == 0;
    net::Client& client = direct ? direct_[d] : via_[d];
    const std::int64_t t0 = now_ns();
    std::optional<net::ResponseFrame> response;
    {
      ScopedSpan call{trace, SpanKind::kCall, SpanKind::kNone};
      response = client.call(0, static_cast<std::uint16_t>(d + 1), 0, kCallTimeoutSeconds);
    }
    const std::int64_t elapsed = now_ns() - t0;
    if (!response || response->status != net::Status::kOk) return false;
    ++c.ok;
    if (sampling) {
      const auto ns = static_cast<std::uint64_t>(elapsed);
      if (direct) {
        c.direct_ns.record(ns);
        const std::int64_t wire =
            elapsed - static_cast<std::int64_t>(response->server_latency_us) * 1000;
        c.wire_ns.record(static_cast<std::uint64_t>(std::max<std::int64_t>(0, wire)));
      } else {
        c.via_ns.record(ns);
      }
    }
    return true;
  }

  std::vector<Check> finish(bool inject_fault) override {
    if (inject_fault) {
      // A request completed behind the clients' backs: the engine then
      // counts one completion no client received.
      std::promise<void> done;
      if (engine_.submit({}, [&](const serve::RequestResult&) { done.set_value(); })
              .admitted) {
        done.get_future().wait();
      }
    }
    for (std::size_t d = 0; d < kClients; ++d) {
      via_[d].close();
      direct_[d].close();
    }
    router_.shutdown();
    shard_.shutdown();
    engine_.drain_and_stop();

    const router::RouterReport r = router_.report();
    const net::NetServerReport front = router_.server_report();
    const net::NetServerReport back = shard_.report();
    const serve::ServeReport e = engine_.report();
    std::uint64_t client_ok = probe_ok_;
    LogHistogram via;
    LogHistogram direct;
    LogHistogram wire;
    for (const PerClient& c : clients_) {
      client_ok += c.ok;
      via.merge(c.via_ns);
      direct.merge(c.direct_ns);
      wire.merge(c.wire_ns);
    }

    layers_.serve_queue_wait_us = us(e.queue_wait.p50);
    layers_.serve_service_us = us(e.service.p50);
    layers_.net_accept_us = us(back.accept.p50);
    layers_.net_reply_us = us(back.reply.p50);
    layers_.net_wire_us = wire.quantile(0.5) * 1e-3;
    layers_.router_hop_us = (via.quantile(0.5) - direct.quantile(0.5)) * 1e-3;
    layers_.router_shed_local = static_cast<double>(r.shed_local - shed_at_gate_);

    const auto n = [](std::uint64_t v) { return std::to_string(v); };
    std::vector<Check> checks;
    checks.push_back({"tpcc_verify_consistency", tpcc_.verify_consistency(), ""});
    checks.push_back({"router_dispatched_is_forwarded_plus_shed_local",
                      r.dispatched == r.forwarded + r.shed_local,
                      n(r.dispatched) + " vs " + n(r.forwarded) + " + " + n(r.shed_local)});
    checks.push_back({"router_forwarded_is_returned", r.forwarded == r.returned,
                      n(r.forwarded) + " vs " + n(r.returned)});
    for (const auto& [name, s] : {std::pair{"router_netserver", front},
                                  std::pair{"shard_netserver", back}}) {
      checks.push_back({std::string{name} + "_decoded_is_enqueued_is_written_plus_dropped",
                        s.requests_decoded == s.responses_enqueued &&
                            s.responses_enqueued == s.responses_written + s.responses_dropped,
                        n(s.requests_decoded) + " / " + n(s.responses_enqueued) + " / " +
                            n(s.responses_written) + " + " + n(s.responses_dropped)});
    }
    checks.push_back({"engine_offered_is_admitted_plus_shed", e.offered == e.admitted + e.shed,
                      n(e.offered) + " vs " + n(e.admitted) + " + " + n(e.shed)});
    checks.push_back({"engine_admitted_is_completed_plus_expired_plus_failed",
                      e.admitted == e.completed + e.expired + e.failed,
                      n(e.admitted) + " vs " + n(e.completed) + " + " + n(e.expired) +
                          " + " + n(e.failed)});
    checks.push_back({"client_ok_is_engine_completed", client_ok == e.completed,
                      n(client_ok) + " vs " + n(e.completed)});
    return checks;
  }

  [[nodiscard]] LayerReport layers() const override { return layers_; }

 private:
  struct alignas(64) PerClient {
    std::uint64_t calls = 0;
    std::uint64_t ok = 0;
    LogHistogram via_ns;     ///< via the router, hop segments
    LogHistogram direct_ns;  ///< straight to the shard, hop segments
    LogHistogram wire_ns;    ///< direct share: client latency - server latency
  };

  static workloads::TpccConfig tpcc_config(std::uint64_t seed) {
    workloads::TpccConfig cfg;  // default mix, 4 warehouses, semantic containers
    cfg.seed = seed;
    return cfg;
  }

  /// The shard's handler: picks the transaction type from TpccConfig's mix
  /// (as TpccBenchmark::run_one) and calls the typed function, so each type
  /// gets its own span.
  void handle(autopn::util::Rng& rng) {
    thread_local TraceSampler sampler{1};
    const OpTrace trace = sampler.next();
    ScopedSpan handler{trace, SpanKind::kHandler, SpanKind::kNone};
    const workloads::TpccConfig& cfg = tpcc_.config();
    const int w = static_cast<int>(rng.uniform_index(cfg.warehouses));
    const int d = static_cast<int>(rng.uniform_index(cfg.districts_per_warehouse));
    const int c = static_cast<int>(rng.uniform_index(cfg.customers_per_district));
    const double pick = rng.uniform();
    double cut = cfg.new_order_fraction;
    if (pick < cut) {
      ScopedSpan s{trace, SpanKind::kNewOrder, SpanKind::kHandler};
      (void)tpcc_.new_order(w, d, c, rng);
      return;
    }
    if (pick < (cut += cfg.payment_fraction)) {
      const auto amount = 1 + static_cast<long long>(rng.uniform_index(5000));
      ScopedSpan s{trace, SpanKind::kPayment, SpanKind::kHandler};
      tpcc_.payment(w, d, c, amount);
      return;
    }
    if (pick < (cut += cfg.order_status_fraction)) {
      ScopedSpan s{trace, SpanKind::kOrderStatus, SpanKind::kHandler};
      (void)tpcc_.order_status(w, d, c);
      return;
    }
    if (pick < (cut += cfg.delivery_fraction)) {
      ScopedSpan s{trace, SpanKind::kDelivery, SpanKind::kHandler};
      (void)tpcc_.delivery(w);
      return;
    }
    ScopedSpan s{trace, SpanKind::kStockLevel, SpanKind::kHandler};
    (void)tpcc_.stock_level(w, d, kStockThreshold);
  }

  /// Readiness gate: the router reports the shard healthy and one probe
  /// through the router is answered kOk. Sheds before that are set-up, not
  /// failures; after it every shed counts.
  void wait_until_ready() {
    const auto deadline = std::chrono::steady_clock::now() + kReadyTimeout;
    const auto check_deadline = [&](const char* what) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error(std::string{"tpcc-routed not ready: "} + what);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    };
    for (;;) {
      const auto health = router_.shard_health();
      if (health.size() == 1 && health[0].second) break;
      check_deadline("router never reported the shard healthy");
    }
    net::Client probe = net::Client::connect("127.0.0.1", router_.port());
    for (;;) {
      const auto response = probe.call(0, 0, 0, kCallTimeoutSeconds);
      if (response && response->status == net::Status::kOk) {
        ++probe_ok_;
        break;
      }
      check_deadline("no probe answered kOk");
    }
    shed_at_gate_ = router_.report().shed_local;
  }

  autopn::util::WallClock clock_;
  stm::Stm stm_;
  workloads::TpccBenchmark tpcc_;
  serve::ServeEngine engine_;
  net::NetServer shard_;
  router::Router router_;
  std::array<net::Client, kClients> via_;
  std::array<net::Client, kClients> direct_;
  std::array<PerClient, kClients> clients_{};
  std::atomic<bool> hop_share_{false};
  std::uint64_t probe_ok_ = 0;
  std::uint64_t shed_at_gate_ = 0;
  LayerReport layers_;
};

}  // namespace

std::unique_ptr<Rig> make_tpcc_routed(std::uint64_t seed) {
  return std::make_unique<TpccRouted>(seed);
}

}  // namespace perfbench
