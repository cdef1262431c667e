// Health verdicts and request traces driven through the deterministic
// cluster simulator (DESIGN.md Sect. 13): the `health` verb must report
// `ok` on a converged cluster, `degraded` with a dead follower or on a
// read-only replica, and `fail` once a shard is poisoned; the SimTrace
// suite holds the span-sum acceptance test (spans of a traced add-user
// tile and sum to the client-observed latency) and the slow-log capture
// of an fsync-stalled mutation.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "daemon/protocol.h"
#include "obs/trace.h"
#include "sim/sim_cluster.h"

namespace dfky::sim {
namespace {

using daemon::Response;

/// Sends `line` to `node` and requires an ok response.
Response ok(SimNode& node, const std::string& line) {
  const auto raw = node.request(line);
  EXPECT_TRUE(raw.has_value()) << line << " on a dead node";
  if (!raw) return Response{};
  const auto r = daemon::parse_response(*raw);
  EXPECT_TRUE(r.has_value()) << line << " -> " << *raw;
  if (!r) return Response{};
  EXPECT_TRUE(r->ok) << line << " -> " << *raw;
  return *r;
}

constexpr auto kConvergeBudget = std::chrono::seconds(20);

TEST(SimHealth, ConvergedClusterReportsOk) {
  SimCluster c(/*shards=*/2, /*followers=*/1, /*seed=*/1);
  ok(c.primary(), "add-user");
  ok(c.primary(), "add-user");
  ASSERT_TRUE(c.wait_converged(kConvergeBudget));

  const Response h = ok(c.primary(), "health");
  EXPECT_EQ(h.fields.at("verdict"), "ok");
  EXPECT_EQ(h.fields.at("role"), "primary");
  EXPECT_EQ(h.fields.at("shards"), "2");
  EXPECT_EQ(h.fields.at("poisoned"), "0,0");
  EXPECT_EQ(h.fields.at("followers_live"), "1/1");
  EXPECT_EQ(h.fields.at("lag_records"), "0");
  EXPECT_EQ(h.fields.at("reasons"), "none");

  // A replica is healthy but not fully serving: degraded, read-only.
  const Response fh = ok(c.follower(0), "health");
  EXPECT_EQ(fh.fields.at("verdict"), "degraded");
  EXPECT_EQ(fh.fields.at("role"), "follower");
  EXPECT_EQ(fh.fields.at("reasons"), "follower-read-only");
}

TEST(SimHealth, DeadFollowerDegradesThePrimary) {
  SimCluster c(/*shards=*/2, /*followers=*/1, /*seed=*/2);
  ok(c.primary(), "add-user");
  ASSERT_TRUE(c.wait_converged(kConvergeBudget));

  c.kill_follower(0);
  // The sender discovers the death while gating this ack; once the ack
  // is back, the follower is marked dead and stops gating.
  ok(c.primary(), "add-user");

  const Response h = ok(c.primary(), "health");
  EXPECT_EQ(h.fields.at("verdict"), "degraded");
  EXPECT_EQ(h.fields.at("followers_live"), "0/1");
  EXPECT_NE(h.fields.at("reasons").find("follower-dead:follower0"),
            std::string::npos)
      << h.fields.at("reasons");

  // Reviving the follower restores the verdict.
  c.restart_follower(0, /*seed=*/502);
  ASSERT_TRUE(c.wait_converged(kConvergeBudget));
  const Response h2 = ok(c.primary(), "health");
  EXPECT_EQ(h2.fields.at("verdict"), "ok");
  EXPECT_EQ(h2.fields.at("followers_live"), "1/1");
}

TEST(SimHealth, PoisonedShardFails) {
  SimCluster c(/*shards=*/2, /*followers=*/1, /*seed=*/3);
  ok(c.primary(), "add-user");

  // Arm a crash point on the very next mutating disk op: the committer's
  // sync fails, the shard is poisoned and the router fail-stops, but the
  // node object stays queryable (the sim's fatal hook does not exit).
  FilePlan plan = c.primary().disk().plan();
  plan.crash_at = c.primary().disk().fault_counters().mutating_ops;
  c.primary().disk().set_plan(plan);

  const auto raw = c.primary().request("add-user");
  ASSERT_TRUE(raw.has_value());
  const auto resp = daemon::parse_response(*raw);
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->ok) << "armed crash did not fail the mutation";

  const Response h = ok(c.primary(), "health");
  EXPECT_EQ(h.fields.at("verdict"), "fail");
  EXPECT_NE(h.fields.at("poisoned").find('1'), std::string::npos);
  EXPECT_NE(h.fields.at("reasons").find("poisoned"), std::string::npos)
      << h.fields.at("reasons");
}

/// The acceptance test (ISSUE 7): an add-user against a 2-shard
/// primary+follower cluster yields a trace whose spans cover
/// accept -> parse -> route -> queue_wait -> wal_append -> fsync ->
/// repl_ack -> respond with monotone non-overlapping timestamps summing
/// (within 5%) to the client-observed latency. Spans tile by
/// construction, so the sum equals the traced total exactly; the 5%
/// budget covers the request()-wrapper overhead outside the trace. A few
/// attempts absorb scheduler noise.
TEST(SimTrace, SpanSumMatchesClientObservedLatency) {
  obs::trace_reset();
  obs::set_tracing(true);
  SimCluster c(/*shards=*/2, /*followers=*/1, /*seed=*/4);

  // Pipelined warm-up: concurrent in-flight add-users, as the pipelined
  // client mode drives them, so the measured request runs on warm paths.
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&c] {
        for (int i = 0; i < 4; ++i) ok(c.primary(), "add-user");
      });
    }
    for (std::thread& t : clients) t.join();
  }

  const std::vector<obs::SpanKind> expected = {
      obs::SpanKind::kAccept,    obs::SpanKind::kParse,
      obs::SpanKind::kRoute,     obs::SpanKind::kQueueWait,
      obs::SpanKind::kWalAppend, obs::SpanKind::kFsync,
      obs::SpanKind::kReplAck,   obs::SpanKind::kRespond};

  bool matched = false;
  for (int attempt = 0; attempt < 10 && !matched; ++attempt) {
    const std::uint64_t t0 = obs::TraceContext::now_ns();
    ok(c.primary(), "add-user");
    const std::uint64_t wall = obs::TraceContext::now_ns() - t0;

    // The measured request is the newest add-user trace in the ring.
    const std::vector<obs::TraceContext> traces = obs::recent_traces();
    ASSERT_FALSE(traces.empty());
    const obs::TraceContext* t = nullptr;
    for (const obs::TraceContext& cand : traces) {
      if (cand.verb == "add-user") t = &cand;
    }
    ASSERT_NE(t, nullptr);

    // Span taxonomy and ordering are deterministic; assert them on every
    // attempt (only the latency comparison is noise-sensitive).
    ASSERT_EQ(t->spans.size(), expected.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(t->spans[i].kind, expected[i]);
      ASSERT_LE(t->spans[i].start_ns, t->spans[i].end_ns);
      if (i > 0) {
        ASSERT_EQ(t->spans[i].start_ns, t->spans[i - 1].end_ns);
      }
      sum += t->spans[i].end_ns - t->spans[i].start_ns;
    }
    EXPECT_EQ(sum, t->total_ns);  // tiling: exact, not approximate

    ASSERT_LE(t->total_ns, wall);
    matched = wall - t->total_ns <= wall / 20;
  }
  EXPECT_TRUE(matched)
      << "trace total never came within 5% of the client-observed latency";
}

/// An fsync stalled past the slow threshold must land the mutation in the
/// slow-request log (the e2e script checks the same through a live daemon
/// via DFKYD_TEST_FSYNC_STALL_US).
TEST(SimTrace, SlowLogCapturesFsyncStalledMutation) {
  obs::trace_reset();
  obs::set_tracing(true);
  const std::uint64_t saved = obs::slow_threshold_ns();

  SimCluster c(/*shards=*/1, /*followers=*/0, /*seed=*/5);

  // Calibrate against an unstalled request so the threshold holds under
  // sanitizer slowdowns too: anything 4x the fast request is "slow", and
  // the armed stall clears the threshold by a further 4x.
  const std::uint64_t t0 = obs::TraceContext::now_ns();
  ok(c.primary(), "add-user");
  const std::uint64_t fast_ns =
      std::max<std::uint64_t>(obs::TraceContext::now_ns() - t0, 250 * 1000);
  const std::uint64_t threshold_ns = 4 * fast_ns;
  obs::set_slow_threshold_ns(threshold_ns);

  FilePlan plan = c.primary().disk().plan();
  plan.fsync_delay_ns = 4 * threshold_ns;
  c.primary().disk().set_plan(plan);
  ok(c.primary(), "add-user");

  const std::vector<obs::TraceContext> slow = obs::slow_traces();
  ASSERT_FALSE(slow.empty());
  // Slowest first: the stalled mutation leads, with the stall attributed
  // to its fsync span rather than smeared across the timeline.
  EXPECT_EQ(slow[0].verb, "add-user");
  EXPECT_GE(slow[0].total_ns, plan.fsync_delay_ns);
  std::uint64_t fsync_ns = 0;
  for (const obs::TraceSpan& sp : slow[0].spans) {
    if (sp.kind == obs::SpanKind::kFsync) fsync_ns += sp.end_ns - sp.start_ns;
  }
  EXPECT_GE(fsync_ns, plan.fsync_delay_ns);

  const std::string jsonl = obs::trace_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"slow_trace\""), std::string::npos);

  obs::set_slow_threshold_ns(saved);
  obs::trace_reset();
}

}  // namespace
}  // namespace dfky::sim
