// Observability layer: registry semantics, thread-safety of the hot-path
// update operations (run under TSan via tools/sanitize_check.sh --tsan),
// exporter golden output, and the JSON helper underneath `dfky_cli stats`
// and the bench schema checker.
#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"
#include "test_util.h"

namespace dfky {
namespace {

// The registry is process-wide and shared with every other test in this
// binary, so assertions use series with test-local names and, for golden
// output, filter the export down to those series (ordering within the
// filtered subset is still the exporter's deterministic order).
std::vector<std::string> lines_with_prefix(const std::string& text,
                                           const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

std::vector<std::string> jsonl_lines_naming(const std::string& text,
                                            const std::string& name_prefix) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  const std::string needle = "\"name\":\"" + name_prefix;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) out.push_back(line);
  }
  return out;
}

TEST(ObsCounter, IncrementsAndLabelsSeparateSeries) {
  obs::Counter& a = obs::counter("t_counter_basic", {{"k", "a"}});
  obs::Counter& b = obs::counter("t_counter_basic", {{"k", "b"}});
  const std::uint64_t a0 = a.value(), b0 = b.value();
  a.inc();
  a.inc(4);
  b.inc();
  EXPECT_EQ(a.value(), a0 + 5);
  EXPECT_EQ(b.value(), b0 + 1);
  // Same name+labels -> same series object.
  EXPECT_EQ(&a, &obs::counter("t_counter_basic", {{"k", "a"}}));
  // Label order must not matter for identity.
  obs::Counter& c1 = obs::counter("t_counter_two", {{"x", "1"}, {"y", "2"}});
  obs::Counter& c2 = obs::counter("t_counter_two", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&c1, &c2);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge& g = obs::gauge("t_gauge");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(ObsHistogram, BucketsAndQuantiles) {
  obs::Histogram& h =
      obs::histogram("t_hist_buckets", {}, {10, 100, 1000});
  h.observe(5);     // <= 10
  h.observe(50);    // <= 100
  h.observe(500);   // <= 1000
  h.observe(5000);  // +Inf
  const auto s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.cumulative_counts.size(), 4u);
  EXPECT_EQ(s.cumulative_counts[0], 1u);
  EXPECT_EQ(s.cumulative_counts[1], 2u);
  EXPECT_EQ(s.cumulative_counts[2], 3u);
  EXPECT_EQ(s.cumulative_counts[3], 4u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 5555u);
  // Quantiles are bucket-interpolated: p25 lands in the first bucket.
  EXPECT_LE(s.quantile(0.25), 10.0);
  EXPECT_GT(s.quantile(0.95), 100.0);
  // Empty histogram.
  obs::Histogram& e = obs::histogram("t_hist_empty", {}, {10});
  EXPECT_EQ(e.snapshot().quantile(0.5), 0.0);
}

TEST(ObsScopedTimer, RecordsElapsedNanoseconds) {
  obs::Histogram& h = obs::histogram("t_timer_hist");
  const std::uint64_t n0 = h.count();
  {
    obs::ScopedTimer t(h);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.count(), n0 + 1);
  EXPECT_GT(h.sum(), 0u);
}

TEST(ObsConcurrency, CountersFromManyThreads) {
  obs::Counter& c = obs::counter("t_conc_counter");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), before + std::uint64_t(kThreads) * kIters);
}

TEST(ObsConcurrency, HistogramsAndSeriesCreationFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([t] {
      // Exercise create-on-first-use racing with updates: half the threads
      // fetch the series inside the loop.
      obs::Histogram& h = obs::histogram("t_conc_hist", {}, {100, 10000});
      for (int i = 0; i < kIters; ++i) {
        if (t % 2 == 0) {
          h.observe(std::uint64_t(i));
        } else {
          obs::histogram("t_conc_hist", {}, {100, 10000})
              .observe(std::uint64_t(i));
        }
        obs::gauge("t_conc_gauge").set(i);
      }
    });
  }
  for (auto& t : ts) t.join();
  const auto s = obs::histogram("t_conc_hist", {}, {100, 10000}).snapshot();
  EXPECT_EQ(s.count, std::uint64_t(kThreads) * kIters);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i + 1 < s.cumulative_counts.size(); ++i) {
    EXPECT_LE(s.cumulative_counts[i], s.cumulative_counts[i + 1]);
  }
  total = s.cumulative_counts.back();
  EXPECT_EQ(total, s.count);
}

TEST(ObsEvents, RingKeepsNewestAndCountsDrops) {
  auto& reg = obs::MetricsRegistry::instance();
  const std::size_t before = reg.events().size();
  reg.emit({.name = "t_ev", .period = 3, .user = 7, .detail = "x", .value = 9});
  const auto evs = reg.events();
  ASSERT_GT(evs.size(), before);
  const obs::Event& last = evs.back();
  EXPECT_EQ(last.name, "t_ev");
  EXPECT_EQ(last.period, 3);
  EXPECT_EQ(last.user, 7);
  EXPECT_EQ(last.detail, "x");
  EXPECT_EQ(last.value, 9);

  for (std::size_t i = 0; i < obs::MetricsRegistry::kEventCapacity + 8; ++i) {
    reg.emit({.name = "t_ev_flood", .period = -1, .user = -1, .detail = "", .value = 0});
  }
  EXPECT_EQ(reg.events().size(), obs::MetricsRegistry::kEventCapacity);
  // The overflow is itself observable.
  EXPECT_NE(reg.jsonl().find("dfky_obs_events_dropped_total"),
            std::string::npos);
}

TEST(ObsExporters, PrometheusGolden) {
  obs::counter("t_golden_total", {{"kind", "x"}}).inc(3);
  obs::gauge("t_golden_gauge").set(-2);
  obs::Histogram& h = obs::histogram("t_golden_ns", {}, {10, 100});
  h.observe(4);
  h.observe(40);
  h.observe(400);

  const std::string prom = obs::MetricsRegistry::instance().prometheus();
  // Sections in exporter order: counters, gauges, histograms.
  const std::vector<std::string> expected = {
      "t_golden_total{kind=\"x\"} 3",
      "t_golden_gauge -2",
      "t_golden_ns_bucket{le=\"10\"} 1",
      "t_golden_ns_bucket{le=\"100\"} 2",
      "t_golden_ns_bucket{le=\"+Inf\"} 3",
      "t_golden_ns_sum 444",
      "t_golden_ns_count 3",
  };
  EXPECT_EQ(lines_with_prefix(prom, "t_golden_"), expected);
}

TEST(ObsExporters, FailoverSeriesGolden) {
  // The self-healing cluster's scrape surface (DESIGN.md Sect. 14), pinned
  // by name: dashboards and dfky_top key on these exact series.
  obs::gauge("dfky_repl_term").set(4);
  obs::gauge("dfky_watchdog_state").set(1);  // watching
  obs::counter("dfky_failovers_total").inc();
  obs::counter("dfky_fenced_writes_total").inc(2);

  const std::string prom = obs::MetricsRegistry::instance().prometheus();
  EXPECT_EQ(lines_with_prefix(prom, "dfky_repl_term"),
            std::vector<std::string>{"dfky_repl_term 4"});
  EXPECT_EQ(lines_with_prefix(prom, "dfky_watchdog_state"),
            std::vector<std::string>{"dfky_watchdog_state 1"});
  EXPECT_EQ(lines_with_prefix(prom, "dfky_failovers_total"),
            std::vector<std::string>{"dfky_failovers_total 1"});
  EXPECT_EQ(lines_with_prefix(prom, "dfky_fenced_writes_total"),
            std::vector<std::string>{"dfky_fenced_writes_total 2"});
}

TEST(ObsExporters, JsonlGoldenAndParsesBack) {
  obs::counter("t_jgold_total", {{"b", "2"}, {"a", "1"}}).inc(5);
  const std::string out = obs::MetricsRegistry::instance().jsonl();
  ASSERT_FALSE(out.empty());
  // Meta line first.
  EXPECT_EQ(out.rfind("{\"kind\":\"meta\",\"obs\":\"on\"", 0), 0u);
  const auto mine = jsonl_lines_naming(out, "t_jgold_total");
  ASSERT_EQ(mine.size(), 1u);
  // Labels are sorted by key regardless of call-site order.
  EXPECT_EQ(mine[0],
            "{\"kind\":\"counter\",\"name\":\"t_jgold_total\","
            "\"labels\":{\"a\":\"1\",\"b\":\"2\"},\"value\":5}");
  // Every line of the export is valid JSON.
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_NO_THROW(json::Value::parse(line)) << line;
  }
}

TEST(ObsRegistry, ResetZeroesInPlaceAndKeepsHandles) {
  obs::Counter& c = obs::counter("t_reset_total");
  c.inc(10);
  obs::Histogram& h = obs::histogram("t_reset_ns", {}, {10});
  h.observe(3);
  obs::MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(obs::MetricsRegistry::instance().events().empty());
  // The cached handle is still the live series.
  c.inc();
  EXPECT_EQ(obs::counter("t_reset_total").value(), 1u);
}

// ---- store instrumentation ----------------------------------------------------
// The durable store's counters share the process-wide registry, so these
// assert deltas around a scripted recovery rather than absolute values.

TEST(ObsStore, RecoveryIncrementsStoreCounters) {
  MemFileIo fs;
  ChaChaRng rng(9301);
  {
    SecurityManager mgr(test::test_params(2, 9301), rng);
    StateStore store =
        StateStore::create(fs, "sys", std::move(mgr), rng, StoreOptions{});
    store.add_user(rng);
    store.add_user(rng);
  }

  obs::Counter& recoveries = obs::counter("dfky_store_recoveries_total");
  obs::Counter& replayed =
      obs::counter("dfky_store_recovery_replayed_records_total");
  obs::Counter& trunc_recs =
      obs::counter("dfky_store_recovery_truncated_records_total");
  obs::Counter& trunc_bytes =
      obs::counter("dfky_store_recovery_truncated_bytes_total");
  obs::Histogram& recovery_ns = obs::histogram("dfky_store_recovery_ns");

  // Clean open: one recovery, two replayed records, nothing truncated.
  const std::uint64_t rec0 = recoveries.value(), rep0 = replayed.value();
  const std::uint64_t tr0 = trunc_recs.value(), tb0 = trunc_bytes.value();
  const std::uint64_t ns0 = recovery_ns.count();
  const std::size_t ev0 = obs::MetricsRegistry::instance().events().size();
  { StateStore s = StateStore::open(fs, "sys"); }
  EXPECT_EQ(recoveries.value(), rec0 + 1);
  EXPECT_EQ(replayed.value(), rep0 + 2);
  EXPECT_EQ(trunc_recs.value(), tr0);
  EXPECT_EQ(trunc_bytes.value(), tb0);
  EXPECT_EQ(recovery_ns.count(), ns0 + 1);
  const auto evs = obs::MetricsRegistry::instance().events();
  ASSERT_GT(evs.size(), ev0);
  EXPECT_EQ(evs.back().name, "store_recovery");
  EXPECT_EQ(evs.back().detail, "clean");

  // Torn tail: the truncation counters move and the event says so.
  const Bytes wal = fs.read("sys/wal.0");
  Bytes torn = wal;
  for (int i = 0; i < 21; ++i) torn.push_back(byte{0xEE});
  fs.write("sys/wal.0", torn);
  { StateStore s = StateStore::open(fs, "sys"); }
  EXPECT_EQ(recoveries.value(), rec0 + 2);
  EXPECT_EQ(replayed.value(), rep0 + 4);
  EXPECT_EQ(trunc_bytes.value(), tb0 + 21);
  EXPECT_EQ(obs::MetricsRegistry::instance().events().back().detail,
            "truncated");
}

TEST(ObsStore, CommitAndSnapshotTimersAccumulate) {
  MemFileIo fs;
  ChaChaRng rng(9302);
  SecurityManager mgr(test::test_params(2, 9302), rng);
  StoreOptions opts;
  opts.snapshot_every = 2;
  StateStore store =
      StateStore::create(fs, "sys", std::move(mgr), rng, opts);

  obs::Counter& appends = obs::counter("dfky_store_wal_appends_total");
  obs::Counter& snaps = obs::counter("dfky_store_snapshots_total");
  obs::Histogram& append_ns = obs::histogram("dfky_store_wal_append_ns");
  const std::uint64_t a0 = appends.value(), s0 = snaps.value();
  const std::uint64_t an0 = append_ns.count();

  store.add_user(rng);   // 1 record
  store.add_user(rng);   // 2 records -> snapshot rotation
  EXPECT_EQ(appends.value(), a0 + 2);
  EXPECT_EQ(snaps.value(), s0 + 1);
  EXPECT_GE(append_ns.count(), an0 + 2);
}

// ---- json.h -------------------------------------------------------------------

TEST(ObsJson, ParsesScalarsAndContainers) {
  const json::Value v = json::Value::parse(
      "  {\"a\": [1, -2.5, true, false, null, \"s\"], \"b\": {\"c\": 3}} ");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 6u);
  EXPECT_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_EQ(a->as_array()[1].as_number(), -2.5);
  EXPECT_TRUE(a->as_array()[2].as_bool());
  EXPECT_FALSE(a->as_array()[3].as_bool());
  EXPECT_TRUE(a->as_array()[4].is_null());
  EXPECT_EQ(a->as_array()[5].as_string(), "s");
  EXPECT_EQ(v.find("b")->find("c")->as_number(), 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ObsJson, StringEscapes) {
  const json::Value v =
      json::Value::parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xc3\xa9");
  EXPECT_EQ(json::escape("x\"y\\z\n"), "x\\\"y\\\\z\\n");
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse(""), DecodeError);
  EXPECT_THROW(json::Value::parse("{"), DecodeError);
  EXPECT_THROW(json::Value::parse("[1,]"), DecodeError);
  EXPECT_THROW(json::Value::parse("{\"a\":1} trailing"), DecodeError);
  EXPECT_THROW(json::Value::parse("nul"), DecodeError);
  EXPECT_THROW(json::Value::parse("\"unterminated"), DecodeError);
}

TEST(ObsJson, FormatNumber) {
  EXPECT_EQ(json::format_number(0), "0");
  EXPECT_EQ(json::format_number(42), "42");
  EXPECT_EQ(json::format_number(-7), "-7");
  EXPECT_EQ(json::format_number(2.5), "2.5");
  // Integers in the exact range stay exponent-free.
  EXPECT_EQ(json::format_number(1e12), "1000000000000");
}

TEST(ObsJson, BuildAndReparse) {
  json::Value obj = json::Value::object();
  obj.set("name", json::Value::string("x\ny"));
  json::Value arr = json::Value::array();
  arr.push_back(json::Value::number(1));
  arr.push_back(json::Value::boolean(true));
  obj.set("items", std::move(arr));
  // Round-trip through the exporters' escaping.
  const std::string text = "{\"name\":\"" + json::escape("x\ny") +
                           "\",\"items\":[1,true]}";
  const json::Value back = json::Value::parse(text);
  EXPECT_EQ(back.find("name")->as_string(), "x\ny");
  EXPECT_EQ(back.find("items")->as_array().size(), 2u);
}

}  // namespace
}  // namespace dfky
