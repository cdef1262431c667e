#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace dfky::obs {
namespace {

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<bool> g_tracing{true};
std::atomic<std::uint64_t> g_slow_threshold_ns{10ull * 1000 * 1000};

thread_local TraceContext* t_current = nullptr;

/// One ring stripe: a fixed circular buffer behind its own mutex. Traces
/// are striped by id, so concurrent completions mostly hit distinct
/// stripes and the push cost stays one short critical section.
struct RingStripe {
  std::mutex mu;
  std::vector<TraceContext> slots;  // lazily grown up to kTraceRingPerStripe
  std::size_t next = 0;             // slot overwritten by the next push
};

RingStripe* ring() {
  static RingStripe* r = new RingStripe[kTraceRingStripes];
  return r;
}

/// Per-verb slow log: two half-windows of the K slowest traces. Rotation
/// happens on insert, so a burst of slow requests ages out after at most
/// one full window with no background thread.
struct VerbSlow {
  std::vector<TraceContext> cur, prev;  // sorted slowest-first, size <= K
  std::uint64_t cur_start_ns = 0;
};

struct SlowLog {
  std::mutex mu;
  std::map<std::string, VerbSlow> by_verb;
};

SlowLog& slow_log() {
  static SlowLog* s = new SlowLog;
  return *s;
}

void slow_insert(VerbSlow& vs, const TraceContext& t, std::uint64_t now) {
  constexpr std::uint64_t half = kSlowWindowNs / 2;
  if (vs.cur_start_ns == 0) vs.cur_start_ns = now;
  if (now - vs.cur_start_ns >= half) {
    // Rotate; if more than a whole window elapsed, the old half is stale
    // too.
    vs.prev = (now - vs.cur_start_ns >= kSlowWindowNs)
                  ? std::vector<TraceContext>{}
                  : std::move(vs.cur);
    vs.cur.clear();
    vs.cur_start_ns = now;
  }
  auto pos = std::upper_bound(
      vs.cur.begin(), vs.cur.end(), t,
      [](const TraceContext& a, const TraceContext& b) {
        return a.total_ns > b.total_ns;
      });
  vs.cur.insert(pos, t);
  if (vs.cur.size() > kSlowTracesPerVerb) vs.cur.resize(kSlowTracesPerVerb);
}

}  // namespace

std::uint64_t TraceContext::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TraceContext::mark_at(SpanKind k, std::uint64_t t,
                           std::string_view label) {
  const std::uint64_t end = t > cursor_ns ? t : cursor_ns;
  spans.push_back(TraceSpan{k, cursor_ns, end, std::string(label)});
  cursor_ns = end;
}

void TraceContext::mark(SpanKind k) { mark_at(k, now_ns()); }

TraceContext* current_trace() { return t_current; }

void trace_adopt_id(std::uint64_t id) {
  if (t_current != nullptr) t_current->id = id;
}

RequestTrace RequestTrace::start() {
  RequestTrace t;
  if (!g_tracing.load(std::memory_order_relaxed)) return t;
  t.ctx_ = std::make_unique<TraceContext>();
  t.ctx_->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  t.ctx_->start_ns = TraceContext::now_ns();
  t.ctx_->cursor_ns = t.ctx_->start_ns;
  t.ctx_->spans.reserve(8);
  return t;
}

void RequestTrace::set_verb(std::string_view verb) {
  if (ctx_) ctx_->verb.assign(verb);
}

void RequestTrace::set_outcome(bool ok) {
  if (ctx_) ctx_->ok = ok;
}

void RequestTrace::finish() {
  if (!ctx_) return;
  const std::unique_ptr<TraceContext> ctx = std::move(ctx_);
  ctx->mark(SpanKind::kRespond);
  ctx->total_ns = ctx->cursor_ns - ctx->start_ns;
  // Per-verb end-to-end latency; the verb set is closed (verb_label), so
  // the label cardinality is bounded.
  histogram("dfkyd_request_ns", {{"verb", ctx->verb}}).observe(ctx->total_ns);
  trace_record(*ctx);
}

ScopedTrace::ScopedTrace() : trace_(RequestTrace::start()) {
  prev_ = t_current;
  if (trace_.get() != nullptr) t_current = trace_.get();
}

ScopedTrace::~ScopedTrace() { t_current = prev_; }

void trace_mark(SpanKind k) {
  if (t_current != nullptr) t_current->mark(k);
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }

void set_slow_threshold_ns(std::uint64_t ns) {
  g_slow_threshold_ns.store(ns, std::memory_order_relaxed);
}
std::uint64_t slow_threshold_ns() {
  return g_slow_threshold_ns.load(std::memory_order_relaxed);
}

void trace_record(const TraceContext& t) {
  RingStripe& s = ring()[t.id % kTraceRingStripes];
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.slots.size() < kTraceRingPerStripe) {
      s.slots.push_back(t);
    } else {
      s.slots[s.next] = t;
      s.next = (s.next + 1) % kTraceRingPerStripe;
    }
  }
  const std::uint64_t thr = slow_threshold_ns();
  if (thr != 0 && t.total_ns >= thr) {
    SlowLog& sl = slow_log();
    std::lock_guard<std::mutex> lk(sl.mu);
    slow_insert(sl.by_verb[t.verb], t, TraceContext::now_ns());
  }
}

std::vector<TraceContext> recent_traces(std::size_t max) {
  std::vector<TraceContext> out;
  for (std::size_t i = 0; i < kTraceRingStripes; ++i) {
    RingStripe& s = ring()[i];
    std::lock_guard<std::mutex> lk(s.mu);
    out.insert(out.end(), s.slots.begin(), s.slots.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceContext& a, const TraceContext& b) {
              return a.id < b.id;
            });
  if (max > 0 && out.size() > max)
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(max));
  return out;
}

std::vector<TraceContext> slow_traces() {
  std::vector<TraceContext> out;
  SlowLog& sl = slow_log();
  {
    std::lock_guard<std::mutex> lk(sl.mu);
    for (const auto& [verb, vs] : sl.by_verb) {
      out.insert(out.end(), vs.cur.begin(), vs.cur.end());
      out.insert(out.end(), vs.prev.begin(), vs.prev.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceContext& a, const TraceContext& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.id < b.id;
            });
  return out;
}

std::string trace_json_line(const TraceContext& t, std::string_view kind) {
  std::ostringstream os;
  os << "{\"kind\":\"" << kind << "\",\"id\":" << t.id << ",\"verb\":\""
     << json::escape(t.verb) << "\",\"outcome\":\"" << (t.ok ? "ok" : "err")
     << "\",\"total_ns\":" << t.total_ns << ",\"spans\":[";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const TraceSpan& sp = t.spans[i];
    if (i > 0) os << ",";
    os << "{\"span\":\"" << span_name(sp.kind) << "\"";
    if (!sp.label.empty()) os << ",\"label\":\"" << json::escape(sp.label)
                              << "\"";
    os << ",\"start_ns\":" << (sp.start_ns - t.start_ns)
       << ",\"dur_ns\":" << (sp.end_ns - sp.start_ns) << "}";
  }
  os << "]}";
  return os.str();
}

std::string trace_jsonl(std::size_t max) {
  const std::vector<TraceContext> ring_traces = recent_traces(max);
  const std::vector<TraceContext> slow = slow_traces();
  std::ostringstream os;
  os << "{\"kind\":\"trace_meta\",\"ring\":" << ring_traces.size()
     << ",\"slow\":" << slow.size()
     << ",\"slow_threshold_ns\":" << slow_threshold_ns()
     << ",\"tracing\":" << (tracing_enabled() ? "true" : "false") << "}\n";
  for (const TraceContext& t : ring_traces) os << trace_json_line(t) << "\n";
  for (const TraceContext& t : slow)
    os << trace_json_line(t, "slow_trace") << "\n";
  return os.str();
}

void trace_reset() {
  for (std::size_t i = 0; i < kTraceRingStripes; ++i) {
    RingStripe& s = ring()[i];
    std::lock_guard<std::mutex> lk(s.mu);
    s.slots.clear();
    s.next = 0;
  }
  {
    SlowLog& sl = slow_log();
    std::lock_guard<std::mutex> lk(sl.mu);
    sl.by_verb.clear();
  }
  g_next_id.store(1, std::memory_order_relaxed);
}

}  // namespace dfky::obs
