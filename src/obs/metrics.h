// Observability layer: process-wide metrics registry, RAII timing spans and
// a structured event log for the DFKY lifecycle.
//
// Design goals (DESIGN.md Sect. 8):
//
//   * Hot-path cost is one relaxed atomic add (counters) or one
//     steady_clock read pair (timers). Series creation takes a mutex once;
//     hot call sites keep the returned handle (a function-local static for
//     constant labels, a member for per-instance labels) so the lookup is
//     paid once, and the lookup is ordinary code at the call site.
//   * Exporters: Prometheus text exposition and a JSONL snapshot (one JSON
//     object per line: counters, gauges, histograms, then events). Ordering
//     is deterministic (sorted by name, then labels) so golden tests can
//     compare exact strings.
//
// Naming conventions: `dfky_<subsystem>_<what>_total` for counters,
// `dfky_<what>_ns` for timing histograms, labels for low-cardinality
// dimensions only (backend, msg type, outcome, path, mode).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dfky::obs {

/// One `key="value"` metric dimension. Keep cardinality low: label values
/// must come from small fixed sets (an enum name, a message type), never
/// from user ids or payload data.
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/// A single structured event (the longitudinal trace the tracing-scheme
/// literature needs: probe outcomes, period resets, channel faults over
/// time). Fields with no meaning for an event stay at their defaults and
/// are omitted from the JSONL form.
struct Event {
  std::string name;          // e.g. "new_period", "reset_apply"
  std::int64_t period = -1;  // scheme period, when known
  std::int64_t user = -1;    // user id, when known
  std::string detail;        // msg type / outcome / free-form context
  std::int64_t value = 0;    // optional magnitude (bytes, count)
};

/// Monotonically increasing counter. Updates are lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins signed gauge. Updates are lock-free.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram; bucket i counts observations <= bounds[i], with
/// one implicit +Inf bucket. Updates are lock-free (linear scan over at
/// most kMaxBounds comparisons, then one relaxed add).
class Histogram {
 public:
  static constexpr std::size_t kMaxBounds = 16;

  /// Default bounds for nanosecond timings: 1us .. 4s, roughly x4 steps.
  static std::vector<std::uint64_t> default_ns_bounds();

  /// Sub-microsecond bounds for daemon request latencies: 250ns .. 1s,
  /// roughly x4 steps. Registered by dfkyd for its request histograms via
  /// MetricsRegistry::set_default_bounds.
  static std::vector<std::uint64_t> fast_ns_bounds();

  void observe(std::uint64_t x) noexcept {
    std::size_t i = 0;
    while (i < n_bounds_ && x > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  struct Snapshot {
    std::vector<std::uint64_t> bounds;            // upper bounds, no +Inf
    std::vector<std::uint64_t> cumulative_counts; // per bucket incl. +Inf
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Approximate quantile (q in [0,1]) by linear interpolation inside
    /// the containing bucket; 0 when empty.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::vector<std::uint64_t>& bounds);

  std::size_t n_bounds_ = 0;
  std::array<std::uint64_t, kMaxBounds> bounds_{};
  std::array<std::atomic<std::uint64_t>, kMaxBounds + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide registry. Series are created on first use (mutex-guarded)
/// and live for the process lifetime, so handle references never dangle;
/// `reset()` zeroes values in place rather than removing series.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       const std::vector<std::uint64_t>& bounds = {});

  /// Registers default bucket bounds for every *future* histogram series
  /// with this name (any label set), overriding both default_ns_bounds()
  /// and call-site bounds. Series created earlier keep their bounds
  /// (first registration wins per series), so call this at startup before
  /// traffic — dfkyd does, to give its latency histograms sub-microsecond
  /// resolution without recompiling call sites.
  void set_default_bounds(std::string_view name,
                          std::vector<std::uint64_t> bounds);

  /// Appends to the bounded event ring (oldest events are dropped; the
  /// drop count is itself reported as dfky_obs_events_dropped_total).
  void emit(Event ev);
  std::vector<Event> events() const;
  static constexpr std::size_t kEventCapacity = 4096;

  /// Prometheus text exposition format, deterministically ordered.
  std::string prometheus() const;
  /// JSONL snapshot: one object per metric/event line, same ordering.
  std::string jsonl() const;

  /// Zeroes every counter/gauge/histogram and clears the event ring.
  /// Registered series survive (handles cached by call sites stay valid).
  void reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII timing span: records elapsed wall nanoseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) noexcept
      : h_(&h), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    h_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

inline Counter& counter(std::string_view name, const Labels& labels = {}) {
  return MetricsRegistry::instance().counter(name, labels);
}
inline Gauge& gauge(std::string_view name, const Labels& labels = {}) {
  return MetricsRegistry::instance().gauge(name, labels);
}
inline Histogram& histogram(std::string_view name, const Labels& labels = {},
                            const std::vector<std::uint64_t>& bounds = {}) {
  return MetricsRegistry::instance().histogram(name, labels, bounds);
}
inline void event(Event ev) { MetricsRegistry::instance().emit(std::move(ev)); }

}  // namespace dfky::obs
