#include "trace.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {

std::atomic<Tracer*> g_tracer{nullptr};

std::string_view span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kNone: return "-";
    case SpanKind::kOp: return "op";
    case SpanKind::kBody: return "body";
    case SpanKind::kReadLoop: return "read_loop";
    case SpanKind::kChildren: return "run_children";
    case SpanKind::kChild: return "child";
    case SpanKind::kChildReadLoop: return "child_read_loop";
    case SpanKind::kCall: return "call";
    case SpanKind::kHandler: return "handler";
    case SpanKind::kNewOrder: return "new_order";
    case SpanKind::kPayment: return "payment";
    case SpanKind::kOrderStatus: return "order_status";
    case SpanKind::kDelivery: return "delivery";
    case SpanKind::kStockLevel: return "stock_level";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::int64_t self_time(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start_ns;  // covered up to here
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, cursor);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return parent.duration() - covered;
}

std::int64_t fork_join_self_time(const Span& parent, const std::vector<Span>& children) {
  std::int64_t longest = 0;
  for (const Span& child : children) longest = std::max(longest, child.duration());
  return parent.duration() - longest;
}

namespace {
std::atomic<std::uint64_t> next_tracer_id{1};
}  // namespace

Tracer::Tracer(std::size_t threads, std::size_t capacity)
    : id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)), capacity_(capacity) {
  buffers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(capacity);
    buffers_.push_back(std::move(buffer));
  }
}

Tracer::Buffer* Tracer::buffer_for_this_thread() noexcept {
  // A thread keeps the buffer it drew under the tracer's current id; a new
  // id (a new tracer, or forget_threads) hands the buffers out again.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != id_) {
    owner = id_;
    const std::size_t i = next_buffer_.fetch_add(1, std::memory_order_relaxed);
    buffer = i < buffers_.size() ? buffers_[i].get() : nullptr;
  }
  return buffer;
}

void Tracer::forget_threads() noexcept {
  id_ = next_tracer_id.fetch_add(1, std::memory_order_relaxed);
  next_buffer_.store(0, std::memory_order_relaxed);
}

void Tracer::record(const Span& span) noexcept {
  Buffer* buffer = buffer_for_this_thread();
  if (buffer == nullptr || buffer->spans.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return std::tie(a.op, a.start_ns) < std::tie(b.op, b.start_ns);
  });
  return all;
}

void Tracer::write_tsv(std::ostream& out) const {
  out << "op\tspan\tparent\titems\tstart_ns\tend_ns\n";
  for (const Span& s : collect()) {
    out << s.op << '\t' << span_name(s.kind) << '\t' << span_name(s.parent) << '\t'
        << s.items << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
