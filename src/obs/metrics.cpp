#include "obs/metrics.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common.h"
#include "obs/json.h"

namespace dfky::obs {

namespace {

/// Canonical series key: labels sorted by key so the same logical series is
/// found regardless of call-site label order, and exporters iterate the map
/// in a deterministic order.
struct SeriesKey {
  std::string name;
  Labels labels;

  bool operator<(const SeriesKey& o) const {
    if (name != o.name) return name < o.name;
    return labels < o.labels;
  }
};

SeriesKey make_key(std::string_view name, const Labels& labels) {
  SeriesKey k{std::string(name), labels};
  std::sort(k.labels.begin(), k.labels.end());
  return k;
}

std::string label_suffix(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += "\"";
  }
  out += "}";
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    out += "\"" + json::escape(k) + "\":\"" + json::escape(v) + "\"";
#pragma GCC diagnostic pop
  }
  out += "}";
  return out;
}

}  // namespace

std::vector<std::uint64_t> Histogram::default_ns_bounds() {
  return {1'000ull,      4'000ull,       16'000ull,      64'000ull,
          250'000ull,    1'000'000ull,   4'000'000ull,   16'000'000ull,
          64'000'000ull, 250'000'000ull, 1'000'000'000ull};
}

std::vector<std::uint64_t> Histogram::fast_ns_bounds() {
  return {250ull,         1'000ull,       4'000ull,       16'000ull,
          64'000ull,      250'000ull,     1'000'000ull,   4'000'000ull,
          16'000'000ull,  64'000'000ull,  250'000'000ull, 1'000'000'000ull};
}

Histogram::Histogram(const std::vector<std::uint64_t>& bounds) {
  require(bounds.size() <= kMaxBounds, "histogram: too many bucket bounds");
  require(std::is_sorted(bounds.begin(), bounds.end()),
          "histogram: bucket bounds must be sorted");
  n_bounds_ = bounds.size();
  for (std::size_t i = 0; i < n_bounds_; ++i) bounds_[i] = bounds[i];
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds.assign(bounds_.begin(), bounds_.begin() + n_bounds_);
  s.cumulative_counts.resize(n_bounds_ + 1);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i <= n_bounds_; ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    s.cumulative_counts[i] = running;
  }
  // `count`/`sum` are read after the buckets; under concurrent observes the
  // snapshot is merely approximate, which is fine for reporting.
  s.count = running;
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0 || cumulative_counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::size_t i = 0;
  while (i < cumulative_counts.size() &&
         static_cast<double>(cumulative_counts[i]) < rank) {
    ++i;
  }
  if (i >= bounds.size()) {
    // +Inf bucket: report the highest finite bound (or mean when unbounded).
    if (!bounds.empty()) return static_cast<double>(bounds.back());
    return static_cast<double>(sum) / static_cast<double>(count);
  }
  const double hi = static_cast<double>(bounds[i]);
  const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
  const std::uint64_t below = i == 0 ? 0 : cumulative_counts[i - 1];
  const std::uint64_t in_bucket = cumulative_counts[i] - below;
  if (in_bucket == 0) return hi;
  const double frac = (rank - static_cast<double>(below)) /
                      static_cast<double>(in_bucket);
  return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;  // guards series creation and the event ring only
  std::map<SeriesKey, std::unique_ptr<Counter>> counters;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges;
  std::map<SeriesKey, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::vector<std::uint64_t>, std::less<>>
      histogram_bounds;  // per-name registration-time bounds overrides
  std::deque<Event> events;
  std::uint64_t events_dropped = 0;
};

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked singleton: cached handle references stay valid through static
  // destruction (instrumented destructors may still run late).
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[make_key(name, labels)];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.gauges[make_key(name, labels)];
  if (!slot) slot.reset(new Gauge());
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels,
                                      const std::vector<std::uint64_t>& bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.histograms[make_key(name, labels)];
  if (!slot) {
    const auto reg = im.histogram_bounds.find(name);
    if (reg != im.histogram_bounds.end()) {
      slot.reset(new Histogram(reg->second));
    } else {
      slot.reset(new Histogram(bounds.empty() ? Histogram::default_ns_bounds()
                                              : bounds));
    }
  }
  return *slot;
}

void MetricsRegistry::set_default_bounds(std::string_view name,
                                         std::vector<std::uint64_t> bounds) {
  require(bounds.size() <= Histogram::kMaxBounds,
          "set_default_bounds: too many bucket bounds");
  require(std::is_sorted(bounds.begin(), bounds.end()),
          "set_default_bounds: bucket bounds must be sorted");
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.histogram_bounds[std::string(name)] = std::move(bounds);
}

void MetricsRegistry::emit(Event ev) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.events.size() >= kEventCapacity) {
    im.events.pop_front();
    ++im.events_dropped;
  }
  im.events.push_back(std::move(ev));
}

std::vector<Event> MetricsRegistry::events() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return {im.events.begin(), im.events.end()};
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [k, c] : im.counters) c->v_.store(0, std::memory_order_relaxed);
  for (auto& [k, g] : im.gauges) g->v_.store(0, std::memory_order_relaxed);
  for (auto& [k, h] : im.histograms) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
  }
  im.events.clear();
  im.events_dropped = 0;
}

std::string MetricsRegistry::prometheus() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream out;
  for (const auto& [key, c] : im.counters) {
    out << key.name << label_suffix(key.labels) << " " << c->value() << "\n";
  }
  if (im.events_dropped > 0) {
    out << "dfky_obs_events_dropped_total " << im.events_dropped << "\n";
  }
  for (const auto& [key, g] : im.gauges) {
    out << key.name << label_suffix(key.labels) << " " << g->value() << "\n";
  }
  for (const auto& [key, h] : im.histograms) {
    const Histogram::Snapshot s = h->snapshot();
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      Labels with_le = key.labels;
      with_le.emplace_back("le", std::to_string(s.bounds[i]));
      out << key.name << "_bucket" << label_suffix(with_le) << " "
          << s.cumulative_counts[i] << "\n";
    }
    Labels with_inf = key.labels;
    with_inf.emplace_back("le", "+Inf");
    out << key.name << "_bucket" << label_suffix(with_inf) << " " << s.count
        << "\n";
    out << key.name << "_sum" << label_suffix(key.labels) << " " << s.sum
        << "\n";
    out << key.name << "_count" << label_suffix(key.labels) << " " << s.count
        << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::jsonl() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::ostringstream out;
  out << "{\"kind\":\"meta\",\"obs\":\"on\",\"schema\":\"dfky-metrics-v1\"}\n";
  for (const auto& [key, c] : im.counters) {
    out << "{\"kind\":\"counter\",\"name\":\"" << json::escape(key.name)
        << "\",\"labels\":" << labels_json(key.labels)
        << ",\"value\":" << c->value() << "}\n";
  }
  if (im.events_dropped > 0) {
    out << "{\"kind\":\"counter\",\"name\":\"dfky_obs_events_dropped_total\","
           "\"labels\":{},\"value\":"
        << im.events_dropped << "}\n";
  }
  for (const auto& [key, g] : im.gauges) {
    out << "{\"kind\":\"gauge\",\"name\":\"" << json::escape(key.name)
        << "\",\"labels\":" << labels_json(key.labels)
        << ",\"value\":" << g->value() << "}\n";
  }
  for (const auto& [key, h] : im.histograms) {
    const Histogram::Snapshot s = h->snapshot();
    out << "{\"kind\":\"histogram\",\"name\":\"" << json::escape(key.name)
        << "\",\"labels\":" << labels_json(key.labels) << ",\"bounds\":[";
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      if (i) out << ",";
      out << s.bounds[i];
    }
    out << "],\"cumulative_counts\":[";
    for (std::size_t i = 0; i < s.cumulative_counts.size(); ++i) {
      if (i) out << ",";
      out << s.cumulative_counts[i];
    }
    out << "],\"count\":" << s.count << ",\"sum\":" << s.sum << ",\"p50\":"
        << json::format_number(s.quantile(0.5))
        << ",\"p95\":" << json::format_number(s.quantile(0.95)) << "}\n";
  }
  for (const Event& ev : im.events) {
    out << "{\"kind\":\"event\",\"name\":\"" << json::escape(ev.name) << "\"";
    if (ev.period >= 0) out << ",\"period\":" << ev.period;
    if (ev.user >= 0) out << ",\"user\":" << ev.user;
    if (!ev.detail.empty()) {
      out << ",\"detail\":\"" << json::escape(ev.detail) << "\"";
    }
    if (ev.value != 0) out << ",\"value\":" << ev.value;
    out << "}\n";
  }
  return out.str();
}

}  // namespace dfky::obs
