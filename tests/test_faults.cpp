// Channel-fault matrix: seeded fault plans (drop / duplicate / corrupt /
// reorder / delay, plus targeted new-period drops) over the served feed —
// the `bcast` lines dfkyd's RequestHandler publishes for `new-period` and
// `encrypt`, passed through a LineFilter and applied by every subscriber
// with client::apply_frame — with every subscriber catching up through
// ShardRouter::catch_up and client::apply_replay once the channel heals.
// Asserts the acceptance bar of the channel-fault work: every non-revoked
// receiver converges back to the manager's period and decrypts
// post-recovery content, revoked receivers stay expired (no revival
// through catch-up), and runs are bit-deterministic given the seed. The
// Recovery cases run catch-up over a socket: `subscribe from` on a
// FeedServer, answered by ShardRouter::catch_up and applied by
// client::catch_up.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/revive.h"
#include "client/client.h"
#include "core/content.h"
#include "core/manager.h"
#include "feed_server.h"
#include "line_filter.h"
#include "rng/chacha_rng.h"
#include "serial/codec.h"
#include "served_channel.h"
#include "test_util.h"

namespace dfky {
namespace {

using test::FaultCounters;
using test::FaultPlan;
using test::LineFilter;
using test::str;

/// A content frame whose ciphertext is `payload`, as the filter sees it.
std::string content_line(const Bytes& payload) {
  return "bcast encrypt shard=0 bytes=" + std::to_string(payload.size()) +
         " ct=" + daemon::hex_encode(payload);
}

TEST(FaultyBus, DeterministicGivenSeed) {
  const FaultPlan plan{.seed = 99,
                       .drop_prob = 0.3,
                       .duplicate_prob = 0.2,
                       .corrupt_prob = 0.2,
                       .delay_prob = 0.15,
                       .reorder_prob = 0.15,
                       .delay_lines = 3};
  auto run = [&] {
    std::vector<std::string> delivered;
    LineFilter filter(plan, [&](const std::string& line) {
      delivered.push_back(line);
    });
    for (int i = 0; i < 200; ++i) {
      filter.publish(content_line(Bytes(4, byte(i))));
    }
    filter.flush();
    return std::pair{filter.fault_counters(), delivered};
  };
  const auto [c1, d1] = run();
  const auto [c2, d2] = run();
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(d1, d2);
  // The plan actually injected every fault class.
  EXPECT_GT(c1.dropped, 0u);
  EXPECT_GT(c1.duplicated, 0u);
  EXPECT_GT(c1.corrupted, 0u);
  EXPECT_GT(c1.delayed, 0u);
  EXPECT_GT(c1.reordered, 0u);
  EXPECT_EQ(c1.published, 200u);
}

TEST(FaultyBus, TargetedChangePeriodDrop) {
  std::size_t resets_seen = 0;
  LineFilter filter(FaultPlan{.seed = 5},  // no probabilistic faults
                    [&](const std::string& line) {
                      if (line.starts_with("bcast new-period ")) ++resets_seen;
                    });
  filter.drop_next_new_periods(1);
  filter.publish(content_line(Bytes{1}));                 // unaffected
  filter.publish("bcast new-period period=1 bundles=02");  // dropped
  filter.publish("bcast new-period period=2 bundles=03");  // delivered
  EXPECT_EQ(resets_seen, 1u);
  EXPECT_EQ(filter.fault_counters().targeted_drops, 1u);
  EXPECT_EQ(filter.fault_counters().dropped, 1u);
  // The sender put every line on the wire.
  EXPECT_EQ(filter.fault_counters().published, 3u);
}

// ---------------------------------------------------------------------------
// Full-system scenario under a fault mix.

struct Mix {
  const char* name;
  double drop, dup, corrupt, delay, reorder;
};

struct ScenarioResult {
  FaultCounters counters;
  std::uint64_t mgr_period = 0;
  std::vector<std::uint64_t> good_periods;
  std::vector<ReceiverState> good_states;
  std::vector<bool> good_got_finale;
  std::uint64_t bad_period = 0;
  bool bad_got_any_content = false;
  bool bad_got_finale = false;

  bool operator==(const ScenarioResult&) const = default;
};

ScenarioResult run_scenario(std::uint64_t seed, const Mix& mix) {
  constexpr int kGoodUsers = 4;
  constexpr int kTransitions = 6;  // >= 5 New-period transitions
  constexpr int kTrafficPerTransition = 6;

  ChaChaRng rng(seed);
  const SystemParams sp = test::test_params(3, seed ^ 0xfa157);
  test::ServedChannel channel(SecurityManager(sp, rng), seed ^ 0xd00d);

  test::Subscriber bad = channel.add_user();
  std::vector<test::Subscriber> good;
  for (int i = 0; i < kGoodUsers; ++i) good.push_back(channel.add_user());

  LineFilter filter(FaultPlan{.seed = seed * 1000003 + 17,
                              .drop_prob = mix.drop,
                              .duplicate_prob = mix.dup,
                              .corrupt_prob = mix.corrupt,
                              .delay_prob = mix.delay,
                              .reorder_prob = mix.reorder,
                              .delay_lines = 3},
                    [&](const std::string& line) {
                      for (test::Subscriber& sub : good) sub.apply(line);
                      bad.apply(line);
                    });
  // Everything the deployment published since the last call goes on the
  // faulty channel, in order.
  const auto pump = [&] {
    for (std::string& line : channel.take()) filter.publish(std::move(line));
  };

  channel.ok("revoke " + std::to_string(bad.id));
  pump();

  // Guarantee at least one clean "missed the New-period bundle" episode on
  // top of the probabilistic faults.
  filter.drop_next_new_periods(1);

  for (int t = 0; t < kTransitions; ++t) {
    channel.ok("new-period");
    pump();
    for (int c = 0; c < kTrafficPerTransition; ++c) {
      channel.encrypt("tick");
      pump();
    }
  }

  // The channel heals and every subscriber catches up — the revoked one
  // too, whose replayed bundles must not open.
  filter.heal();
  const auto catch_up = [&](Receiver& rx) {
    client::apply_replay(rx, channel.router().catch_up(rx.period()));
  };
  for (test::Subscriber& sub : good) catch_up(sub.rx);
  catch_up(bad.rx);
  for (int c = 0; c < 8; ++c) channel.encrypt("post-heal");
  channel.encrypt("finale");
  pump();

  auto got_finale = [](const test::Subscriber& sub) {
    return !sub.content.empty() && sub.content.back() == str("finale");
  };

  ScenarioResult result;
  result.counters = filter.fault_counters();
  result.mgr_period = channel.router().status().period;
  for (const test::Subscriber& sub : good) {
    result.good_periods.push_back(sub.rx.period());
    result.good_states.push_back(sub.rx.state());
    result.good_got_finale.push_back(got_finale(sub));
  }
  result.bad_period = bad.rx.period();
  result.bad_got_any_content = !bad.content.empty();
  result.bad_got_finale = got_finale(bad);
  return result;
}

class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

const Mix kMixes[] = {
    // The acceptance mix: 20% drop / 10% duplicate / 5% corruption.
    {"acceptance", 0.20, 0.10, 0.05, 0.00, 0.00},
    {"reorder-heavy", 0.10, 0.05, 0.05, 0.15, 0.15},
    {"brutal", 0.30, 0.15, 0.10, 0.10, 0.10},
};

TEST_P(FaultMatrixTest, NonRevokedReceiversConvergeRevokedExpire) {
  const auto [seed, mix_index] = GetParam();
  const Mix& mix = kMixes[mix_index];
  const ScenarioResult r = run_scenario(seed, mix);

  EXPECT_GT(r.counters.dropped, 0u) << mix.name;
  EXPECT_EQ(r.counters.targeted_drops, 1u) << mix.name;
  EXPECT_EQ(r.mgr_period, 6u);

  for (std::size_t i = 0; i < r.good_periods.size(); ++i) {
    EXPECT_EQ(r.good_periods[i], r.mgr_period)
        << mix.name << " seed=" << seed << " receiver " << i;
    EXPECT_EQ(r.good_states[i], ReceiverState::kCurrent)
        << mix.name << " seed=" << seed << " receiver " << i;
    EXPECT_TRUE(r.good_got_finale[i])
        << mix.name << " seed=" << seed << " receiver " << i;
  }

  // The revoked receiver never follows a period change and never sees
  // content — the catch-up machinery must not revive it.
  EXPECT_EQ(r.bad_period, 0u) << mix.name;
  EXPECT_FALSE(r.bad_got_any_content) << mix.name;
  EXPECT_FALSE(r.bad_got_finale) << mix.name;

  // Determinism: the identical seed reproduces the run bit-for-bit.
  EXPECT_EQ(r, run_scenario(seed, mix)) << mix.name << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesMixes, FaultMatrixTest,
    ::testing::Combine(::testing::Values(11u, 42u), ::testing::Range(0, 3)));

// ---------------------------------------------------------------------------
// Catch-up through the served path. A receiver that sleeps through more
// transitions than the archive retains is unrecoverable — terminally, and
// only on a signed verdict; within the archive the gap is bridged; a
// revoked key is served the bundles but cannot open them.

/// `payload` sealed on the router's shard 0, as a subscriber receives it.
ContentMessage seal(daemon::ShardRouter& router, const Bytes& payload,
                    const Group& group) {
  const Bytes ct = router.encrypt(payload, 0).ct;
  Reader r(ct);
  return ContentMessage::deserialize(r, group);
}

TEST(Recovery, ArchiveEvictionIsTerminal) {
  ChaChaRng rng(404);
  const SystemParams sp = test::test_params(3, 405);
  SecurityManager mgr(sp, rng);
  mgr.set_reset_archive_capacity(2);
  const auto sleeper = mgr.add_user(rng);
  // Five transitions happen while the sleeper is offline; the archive only
  // retains the last two bundles (periods 4 and 5).
  for (int i = 0; i < 5; ++i) mgr.new_period(rng);
  EXPECT_EQ(mgr.archive_oldest_period(), 4u);
  Receiver rx(sp, sleeper.key, mgr.verification_key());
  test::FeedServer server(std::move(mgr));

  client::Conn conn(server.sock());
  const client::CatchUpReport rep = client::catch_up(conn, rx);
  EXPECT_EQ(rep.period, 5u);
  EXPECT_EQ(rep.replayed, 0u);
  EXPECT_EQ(rep.verdicts, 1u);
  EXPECT_EQ(rx.state(), ReceiverState::kUnrecoverable);
  EXPECT_EQ(rx.period(), 0u);  // the key never moved

  // Terminal: a later reset, a later catch-up and later content change
  // nothing.
  const Bytes next = server.router().new_period_all().bundles.at(0);
  Reader r(next);
  EXPECT_EQ(rx.apply_reset(SignedResetBundle::deserialize(r, sp.group)),
            ResetOutcome::kStaleIgnored);
  client::Conn again(server.sock());
  EXPECT_EQ(client::catch_up(again, rx).verdicts, 1u);
  EXPECT_EQ(rx.state(), ReceiverState::kUnrecoverable);
  const Bytes payload = str("still there?");
  const ContentMessage msg = seal(server.router(), payload, sp.group);
  EXPECT_THROW(open_content(sp, rx.key(), msg), Error);
}

TEST(Recovery, WithinArchiveGapIsBridged) {
  ChaChaRng rng(500);
  const SystemParams sp = test::test_params(3, 501);
  SecurityManager mgr(sp, rng);
  const auto u = mgr.add_user(rng);
  for (int i = 0; i < 4; ++i) mgr.new_period(rng);  // within default K=16
  Receiver rx(sp, u.key, mgr.verification_key());
  test::FeedServer server(std::move(mgr));

  // One catch-up replays all four bundles, so the next message decrypts.
  client::Conn conn(server.sock());
  const client::CatchUpReport rep = client::catch_up(conn, rx);
  EXPECT_EQ(rep.replayed, 4u);
  EXPECT_EQ(rep.applied, 4u);
  EXPECT_EQ(rep.verdicts, 0u);
  EXPECT_EQ(rx.state(), ReceiverState::kCurrent);
  EXPECT_EQ(rx.period(), 4u);

  const Bytes payload = str("back online");
  const ContentMessage msg = seal(server.router(), payload, sp.group);
  EXPECT_EQ(open_content(sp, rx.key(), msg), payload);
}

// The revive attack through catch-up: the archive serves the revoked
// adversary every missed bundle, but none opens under her key — no revival
// through the catch-up path.
TEST(Recovery, NoRevivalThroughCatchUp) {
  ChaChaRng rng(321);
  const SystemParams sp = test::test_params(4, 322);
  const ReviveOutcome out = run_revive_attack(sp, rng);
  EXPECT_FALSE(out.scheme_decrypts_when_revoked);
  EXPECT_FALSE(out.scheme_revived);
  EXPECT_GT(out.catch_up_bundles_refused, 0u);
  EXPECT_FALSE(out.scheme_revived_via_catch_up);

  SecurityManager mgr(sp, rng);
  const auto bad = mgr.add_user(rng);
  const auto good = mgr.add_user(rng);
  mgr.remove_user(bad.id, rng);
  for (int i = 0; i < 2; ++i) mgr.new_period(rng);
  Receiver adversary(sp, bad.key, mgr.verification_key());
  Receiver subscriber(sp, good.key, mgr.verification_key());
  test::FeedServer server(std::move(mgr));

  client::Conn conn(server.sock());
  const client::CatchUpReport rep = client::catch_up(conn, adversary);
  EXPECT_EQ(rep.replayed, 2u);
  EXPECT_EQ(rep.applied, 0u);
  EXPECT_EQ(rep.cannot_follow, 1u);  // period 1; period 2 waits behind it
  EXPECT_EQ(adversary.period(), 0u);
  EXPECT_EQ(adversary.state(), ReceiverState::kStale);

  client::Conn other(server.sock());
  EXPECT_EQ(client::catch_up(other, subscriber).applied, 2u);
  const Bytes payload = str("members only");
  const ContentMessage msg = seal(server.router(), payload, sp.group);
  EXPECT_EQ(open_content(sp, subscriber.key(), msg), payload);
  EXPECT_THROW(open_content(sp, adversary.key(), msg), Error);
  // Not even with the stale key forced onto the ciphertext's period.
  UserKey forced = adversary.key();
  forced.period = subscriber.period();
  try {
    EXPECT_NE(open_content(sp, forced, msg), payload);
  } catch (const Error&) {
  }
}

// Only a verdict that verifies under the receiver's own manager key, and
// that is past what the receiver needs, is terminal. Anything else leaves
// a stale receiver stale.
TEST(Recovery, ForgedOrTamperedVerdictLeavesTheReceiverStale) {
  ChaChaRng rng(610);
  const SystemParams sp = test::test_params(3, 611);
  SecurityManager mgr(sp, rng);
  mgr.set_reset_archive_capacity(2);
  const auto sleeper = mgr.add_user(rng);
  for (int i = 0; i < 3; ++i) mgr.new_period(rng);
  const auto late = mgr.add_user(rng);  // key at period 3, needs 4
  for (int i = 0; i < 2; ++i) mgr.new_period(rng);
  ASSERT_EQ(mgr.archive_oldest_period(), 4u);

  Receiver rx(sp, sleeper.key, mgr.verification_key());
  // A signed bundle past the gap makes it stale.
  EXPECT_EQ(rx.apply_reset(mgr.reset_archive().back()),
            ResetOutcome::kGapDetected);
  ASSERT_EQ(rx.state(), ReceiverState::kStale);

  const std::optional<EvictionVerdict> genuine =
      mgr.handle_catch_up(rx.period(), 0, rng).verdict;
  ASSERT_TRUE(genuine.has_value());
  EXPECT_EQ(genuine->oldest_available, 4u);

  EvictionVerdict tampered = *genuine;
  tampered.oldest_available = 5;
  EXPECT_FALSE(rx.apply_eviction(tampered));
  EvictionVerdict reshard = *genuine;
  reshard.shard = 1;
  EXPECT_FALSE(rx.apply_eviction(reshard));
  // Another manager's key (another shard's) signs a verdict of its own.
  SecurityManager other(sp, rng);
  other.set_reset_archive_capacity(1);
  for (int i = 0; i < 3; ++i) other.new_period(rng);
  const std::optional<EvictionVerdict> forged =
      other.handle_catch_up(0, 0, rng).verdict;
  ASSERT_TRUE(forged.has_value());
  EXPECT_FALSE(rx.apply_eviction(*forged));
  // A tampered verdict on the wire, through the client's apply path.
  daemon::FeedReplay wire;
  Writer w;
  tampered.serialize(w, sp.group);
  wire.verdicts.push_back(daemon::hex_encode(std::move(w).take()));
  client::apply_replay(rx, wire);
  EXPECT_EQ(rx.state(), ReceiverState::kStale);
  EXPECT_EQ(rx.period(), 0u);

  // The genuine verdict does not cover a receiver the archive still serves.
  Receiver late_rx(sp, late.key, mgr.verification_key());
  EXPECT_FALSE(late_rx.apply_eviction(*genuine));
  EXPECT_EQ(late_rx.state(), ReceiverState::kCurrent);
  // It does end the sleeper.
  EXPECT_TRUE(rx.apply_eviction(*genuine));
  EXPECT_EQ(rx.state(), ReceiverState::kUnrecoverable);
}

}  // namespace
}  // namespace dfky
