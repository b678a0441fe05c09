#pragma once
// Spans recorded by the benchmark's own files around calls into the
// program's public functions (the program itself is not instrumented).
//
// A span names its kind, the kind of its parent and the operation it belongs
// to; all spans of one operation share that operation's id. Spans land in
// per-thread buffers preallocated when tracing is enabled, are never
// reallocated while a phase runs, and are written out after the run. Only
// every N-th operation of a driver thread is traced (`TraceSampler`), so an
// untraced operation pays one branch and no clock read.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kNone,           ///< "no parent"
  kOp,             ///< Stm::run_top / Stm::read_only call
  kBody,           ///< one attempt of the transaction body
  kReadLoop,       ///< top-level reads inside a body
  kChildren,       ///< Tx::run_children call
  kChild,          ///< one attempt of a child body
  kChildReadLoop,  ///< reads inside a child body
  kCall,           ///< net::Client::call (send -> recv)
  kHandler,        ///< the shard's request handler
  kNewOrder,       ///< TpccBenchmark::new_order
  kPayment,        ///< TpccBenchmark::payment
  kOrderStatus,    ///< TpccBenchmark::order_status
  kDelivery,       ///< TpccBenchmark::delivery
  kStockLevel,     ///< TpccBenchmark::stock_level
  kCount,
};

[[nodiscard]] std::string_view span_name(SpanKind kind);

struct Span {
  std::uint64_t op = 0;  ///< operation id shared by all its spans
  SpanKind kind = SpanKind::kNone;
  SpanKind parent = SpanKind::kNone;
  std::uint32_t items = 0;  ///< work items inside (reads, children)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration() const noexcept { return end_ns - start_ns; }
};

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Self time of `parent`: its duration minus the part of its interval that
/// the `children` cover (overlapping children count once).
[[nodiscard]] std::int64_t self_time(const Span& parent, std::vector<Span> children);

/// Self time of a fork/join span whose children run in parallel: its
/// duration minus the longest child.
[[nodiscard]] std::int64_t fork_join_self_time(const Span& parent,
                                               const std::vector<Span>& children);

/// Per-thread span storage with a fixed capacity; full buffers drop spans
/// and count them.
class Tracer {
 public:
  /// `threads` buffers of `capacity` spans each, allocated up front.
  Tracer(std::size_t threads, std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(const Span& span) noexcept;

  /// Lets the threads of the next epoch draw the buffers again (their spans
  /// are kept). Call only when every thread that recorded has ended.
  void forget_threads() noexcept;

  /// All recorded spans, ordered by (op, start).
  [[nodiscard]] std::vector<Span> collect() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  void write_tsv(std::ostream& out) const;

 private:
  struct Buffer {
    std::vector<Span> spans;  // reserved to capacity; never grows past it
  };
  Buffer* buffer_for_this_thread() noexcept;

  std::uint64_t id_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::size_t> next_buffer_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The tracer new operations record into, or nullptr when untraced. Switched
/// between segments of a run; a tracer outlives every operation that drew it.
extern std::atomic<Tracer*> g_tracer;

/// Per-operation trace context: null when the operation is not sampled.
struct OpTrace {
  Tracer* tracer = nullptr;
  std::uint64_t op = 0;
};

/// Decides, per recording thread, which operations are traced; every
/// sampler has its own id prefix, so operation ids are unique in a run.
class TraceSampler {
 public:
  explicit TraceSampler(std::uint64_t every)
      : thread_(next_thread_id()), every_(std::max<std::uint64_t>(1, every)) {}

  [[nodiscard]] OpTrace next() noexcept {
    Tracer* tracer = g_tracer.load(std::memory_order_acquire);
    const std::uint64_t n = counter_++;
    if (tracer == nullptr || n % every_ != 0) return {};
    return OpTrace{tracer, (thread_ << 48) | n};
  }

 private:
  static std::uint64_t next_thread_id() noexcept {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t thread_;
  std::uint64_t every_;
  std::uint64_t counter_ = 0;
};

/// Records one span over its lifetime when the operation is traced.
class ScopedSpan {
 public:
  ScopedSpan(const OpTrace& trace, SpanKind kind, SpanKind parent,
             std::uint32_t items = 0) noexcept
      : trace_(trace) {
    if (trace_.tracer == nullptr) return;
    span_.op = trace_.op;
    span_.kind = kind;
    span_.parent = parent;
    span_.items = items;
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (trace_.tracer == nullptr) return;
    span_.end_ns = now_ns();
    trace_.tracer->record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  OpTrace trace_;
  Span span_{};
};

}  // namespace perfbench
