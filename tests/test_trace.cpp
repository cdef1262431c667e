// Request-tracing layer (obs/trace.h — DESIGN.md Sect. 13): span tiling
// arithmetic, the lock-striped ring, the per-verb slow-request log and the
// JSONL export. TraceConcurrency is the suite tools/sanitize_check.sh
// re-runs under TSan.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace dfky {
namespace {

/// Every test starts from an empty ring/slow log and the default
/// threshold, and restores both — gtest_discover_tests runs one process
/// per test, but sweeps with --gtest_filter must not couple tests either.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_reset();
    obs::set_tracing(true);
    saved_threshold_ = obs::slow_threshold_ns();
  }
  void TearDown() override {
    obs::set_slow_threshold_ns(saved_threshold_);
    obs::set_tracing(true);
    obs::trace_reset();
  }

  std::uint64_t saved_threshold_ = 0;
};

/// A synthetic completed trace: `spans` as (kind, duration) pairs laid out
/// back to back from a fixed origin, total already stamped.
obs::TraceContext make_trace(
    std::uint64_t id, const std::string& verb,
    const std::vector<std::pair<obs::SpanKind, std::uint64_t>>& spans) {
  obs::TraceContext t;
  t.id = id;
  t.verb = verb;
  t.start_ns = 1000;
  t.cursor_ns = t.start_ns;
  for (const auto& [kind, dur] : spans) t.mark_at(kind, t.cursor_ns + dur);
  t.total_ns = t.cursor_ns - t.start_ns;
  return t;
}

using TraceLifecycle = TraceTest;

TEST_F(TraceLifecycle, SpansTileAndSumToTotal) {
  {
    obs::ScopedTrace trace;
    ASSERT_TRUE(trace.active());
    trace.set_verb("add-user");
    ASSERT_NE(obs::current_trace(), nullptr);
    obs::trace_mark(obs::SpanKind::kAccept);
    obs::trace_mark(obs::SpanKind::kParse);
    obs::current_trace()->mark(obs::SpanKind::kRoute);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    obs::trace_mark(obs::SpanKind::kFsync);
  }  // destructor closes `respond` and files the trace
  EXPECT_EQ(obs::current_trace(), nullptr);

  const std::vector<obs::TraceContext> traces = obs::recent_traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceContext& t = traces[0];
  EXPECT_EQ(t.verb, "add-user");
  ASSERT_EQ(t.spans.size(), 5u);
  EXPECT_EQ(t.spans.back().kind, obs::SpanKind::kRespond);

  // Tiling: first span starts at the trace start, every span starts where
  // the previous ended, and the durations sum exactly to the total.
  EXPECT_EQ(t.spans.front().start_ns, t.start_ns);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    ASSERT_LE(t.spans[i].start_ns, t.spans[i].end_ns);
    if (i > 0) {
      EXPECT_EQ(t.spans[i].start_ns, t.spans[i - 1].end_ns);
    }
    sum += t.spans[i].end_ns - t.spans[i].start_ns;
  }
  EXPECT_EQ(sum, t.total_ns);
  EXPECT_GE(t.total_ns, 1000000u);  // the 1ms sleep is inside some span
}

TEST_F(TraceLifecycle, DisabledTracingInstallsNothing) {
  obs::set_tracing(false);
  {
    obs::ScopedTrace trace;
    EXPECT_FALSE(trace.active());
    EXPECT_EQ(obs::current_trace(), nullptr);
    trace.set_verb("status");  // must be safe on an inactive trace
    trace.set_outcome(false);
  }
  EXPECT_TRUE(obs::recent_traces().empty());
}

TEST_F(TraceLifecycle, MarkAtClampsTimestampsFromThePast) {
  obs::TraceContext t;
  t.start_ns = 500;
  t.cursor_ns = 500;
  t.mark_at(obs::SpanKind::kAccept, 700);
  t.mark_at(obs::SpanKind::kParse, 600);  // before the cursor: clamped
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[1].start_ns, 700u);
  EXPECT_EQ(t.spans[1].end_ns, 700u);  // zero-length, never overlapping
  EXPECT_EQ(t.cursor_ns, 700u);
}

TEST_F(TraceLifecycle, RingKeepsTheNewestTraces) {
  const std::size_t cap = obs::kTraceRingStripes * obs::kTraceRingPerStripe;
  for (std::uint64_t id = 1; id <= cap + 100; ++id) {
    obs::trace_record(
        make_trace(id, "add-user", {{obs::SpanKind::kRespond, 10}}));
  }
  const std::vector<obs::TraceContext> all = obs::recent_traces();
  EXPECT_EQ(all.size(), cap);
  // Overwrite evicts oldest-per-stripe, so every survivor is newer than
  // the 100 evicted ids.
  for (const obs::TraceContext& t : all) EXPECT_GT(t.id, 100u);

  const std::vector<obs::TraceContext> newest = obs::recent_traces(10);
  ASSERT_EQ(newest.size(), 10u);
  EXPECT_EQ(newest.back().id, cap + 100);
  EXPECT_EQ(newest.front().id, cap + 91);
  for (std::size_t i = 1; i < newest.size(); ++i) {
    EXPECT_LT(newest[i - 1].id, newest[i].id);
  }
}

using TraceSlow = TraceTest;

TEST_F(TraceSlow, KeepsTheKSlowestPerVerbAboveTheThreshold) {
  obs::set_slow_threshold_ns(1000);
  // 12 slow add-users (totals 1000..12000) + one fast one + a slow revoke.
  for (std::uint64_t i = 1; i <= 12; ++i) {
    obs::trace_record(
        make_trace(i, "add-user", {{obs::SpanKind::kRespond, i * 1000}}));
  }
  obs::trace_record(
      make_trace(90, "add-user", {{obs::SpanKind::kRespond, 999}}));
  obs::trace_record(
      make_trace(91, "revoke", {{obs::SpanKind::kRespond, 5000}}));

  const std::vector<obs::TraceContext> slow = obs::slow_traces();
  // add-user keeps its K slowest (12..5), revoke keeps its one.
  ASSERT_EQ(slow.size(), obs::kSlowTracesPerVerb + 1);
  EXPECT_EQ(slow.front().total_ns, 12000u);
  for (std::size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GE(slow[i - 1].total_ns, slow[i].total_ns);
  }
  std::size_t add_users = 0;
  for (const obs::TraceContext& t : slow) {
    if (t.verb == "add-user") {
      ++add_users;
      EXPECT_GE(t.total_ns, 5000u) << "a non-slowest trace survived";
    }
  }
  EXPECT_EQ(add_users, obs::kSlowTracesPerVerb);
}

TEST_F(TraceSlow, ZeroThresholdDisablesTheSlowLog) {
  obs::set_slow_threshold_ns(0);
  obs::trace_record(make_trace(
      1, "add-user", {{obs::SpanKind::kRespond, 1000000000ull}}));
  EXPECT_TRUE(obs::slow_traces().empty());
  EXPECT_EQ(obs::recent_traces().size(), 1u);  // the ring still fills
}

using TraceJson = TraceTest;

TEST_F(TraceJson, GoldenLine) {
  const obs::TraceContext t =
      make_trace(7, "add-user", {{obs::SpanKind::kAccept, 10},
                                 {obs::SpanKind::kParse, 20},
                                 {obs::SpanKind::kRespond, 30}});
  EXPECT_EQ(obs::trace_json_line(t),
            "{\"kind\":\"trace\",\"id\":7,\"verb\":\"add-user\","
            "\"outcome\":\"ok\",\"total_ns\":60,\"spans\":["
            "{\"span\":\"accept\",\"start_ns\":0,\"dur_ns\":10},"
            "{\"span\":\"parse\",\"start_ns\":10,\"dur_ns\":20},"
            "{\"span\":\"respond\",\"start_ns\":30,\"dur_ns\":30}]}");
  EXPECT_EQ(obs::trace_json_line(t, "slow_trace").substr(0, 21),
            "{\"kind\":\"slow_trace\",");
}

TEST_F(TraceJson, JsonlRoundTripsThroughTheParser) {
  obs::set_slow_threshold_ns(100);
  obs::trace_record(make_trace(1, "revoke", {{obs::SpanKind::kRoute, 40},
                                             {obs::SpanKind::kRespond, 160}}));
  const std::string jsonl = obs::trace_jsonl();
  std::vector<json::Value> lines;
  std::size_t from = 0;
  while (from < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', from);
    lines.push_back(json::Value::parse(jsonl.substr(from, nl - from)));
    from = nl + 1;
  }
  // Meta, the ring copy, and the slow-log copy of the same trace.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("kind")->as_string(), "trace_meta");
  EXPECT_EQ(lines[0].find("ring")->as_number(), 1.0);
  EXPECT_EQ(lines[0].find("slow")->as_number(), 1.0);
  EXPECT_EQ(lines[0].find("slow_threshold_ns")->as_number(), 100.0);
  EXPECT_EQ(lines[1].find("kind")->as_string(), "trace");
  EXPECT_EQ(lines[1].find("verb")->as_string(), "revoke");
  EXPECT_EQ(lines[1].find("total_ns")->as_number(), 200.0);
  EXPECT_EQ(lines[1].find("spans")->as_array().size(), 2u);
  EXPECT_EQ(lines[2].find("kind")->as_string(), "slow_trace");
  EXPECT_EQ(lines[2].find("id")->as_number(), 1.0);
}

using TraceConcurrency = TraceTest;

TEST_F(TraceConcurrency, ParallelTracesAndReadersStayConsistent) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    writers.emplace_back([w] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        obs::ScopedTrace trace;
        trace.set_verb(w % 2 == 0 ? "add-user" : "status");
        obs::trace_mark(obs::SpanKind::kAccept);
        obs::trace_mark(obs::SpanKind::kParse);
      }
    });
  }
  // Concurrent readers exercise every export path while the ring churns.
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([] {
      for (std::size_t i = 0; i < 50; ++i) {
        (void)obs::trace_jsonl(16);
        (void)obs::recent_traces(8);
        (void)obs::slow_traces();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();

  const std::size_t cap = obs::kTraceRingStripes * obs::kTraceRingPerStripe;
  const std::vector<obs::TraceContext> all = obs::recent_traces();
  EXPECT_EQ(all.size(), std::min(cap, kThreads * kPerThread));
  for (const obs::TraceContext& t : all) {
    EXPECT_GE(t.spans.size(), 3u);  // accept, parse, respond
    EXPECT_EQ(t.spans.back().kind, obs::SpanKind::kRespond);
  }
}

}  // namespace
}  // namespace dfky
