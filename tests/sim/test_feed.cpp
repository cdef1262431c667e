// Streaming-feed battery (DESIGN.md Sect. 16), two fronts:
//
//  - FeedStorm: the catch-up storm through the served path. A FeedServer
//    (ShardRouter + FeedHub + the real Reactor) serves a herd of
//    DFKY_STORM_RECEIVERS Receivers (default 10000; 100000 is the
//    env-gated full run), each behind its own connection, that all miss
//    one New-period and then catch up at once with client::catch_up: one
//    `subscribe from`, answered by ShardRouter::catch_up, whose replayed
//    bundle the Receiver verifies and applies. Gate: zero receivers left
//    behind — every receiver back to kCurrent at the manager's period on
//    exactly one replayed epoch, no verdicts, and content sealed in the
//    new period opens for everyone. The herd runs in waves of at most 10k;
//    both ends of every connection live in this process, so when
//    RLIMIT_NOFILE cannot hold 2 fds per receiver the waves shrink the way
//    bench_feed clamps its herd (the total stays the same).
//
//  - SimFeed: the real Reactor+FeedHub over a lossy SimCluster, replaying
//    from the cluster primary's router. Seed-swept (DFKY_SIM_SEEDS)
//    subscriber churn: new-periods committed through the cluster primary
//    are published as feed frames, subscribers join mid-stream with
//    resume-from-period replay, some are killed abruptly right after a
//    publish (kill-mid-broadcast), a follower dies and reboots under ack
//    loss. Survivors must see a gapless contiguous frame sequence from
//    their join point to the final period. tools/sanitize_check.sh re-runs
//    both under ASan and TSan (SimFeed with a 20-seed sweep).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "client/client.h"
#include "core/content.h"
#include "core/manager.h"
#include "daemon/feed.h"
#include "daemon/protocol.h"
#include "feed_server.h"
#include "rng/chacha_rng.h"
#include "serial/codec.h"
#include "sim/sim_cluster.h"
#include "test_util.h"

namespace dfky::sim {
namespace {

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const auto n = daemon::parse_u64(env);
    if (n && *n > 0) return static_cast<std::size_t>(*n);
  }
  return fallback;
}

std::size_t sweep_seeds() {
  return env_count("DFKY_SIM_SEEDS", 5);
}

Bytes str(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

constexpr int kMs = 10000;  // a frame slower than this fails the test

// ---------------------------------------------------------------------------
// FeedStorm — the catch-up storm.

/// The largest wave whose ~2 fds per receiver (plus 512 spare) fit the
/// RLIMIT_NOFILE budget, raising the soft limit first (as bench_feed does).
std::size_t wave_fd_cap(std::size_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 256;
  if (rl.rlim_cur < 2 * want + 512 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = std::min<rlim_t>(rl.rlim_max, 2 * want + 512);
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  const auto budget = static_cast<std::size_t>(rl.rlim_cur);
  return std::min(want, (budget - std::min<std::size_t>(budget, 512)) / 2);
}

TEST(FeedStorm, CatchUpStormLeavesNoReceiverBehind) {
  const std::size_t total = env_count("DFKY_STORM_RECEIVERS", 10000);
  constexpr std::size_t kWaveCap = 10000;
  const std::size_t wave_cap = wave_fd_cap(kWaveCap);
  ASSERT_GT(wave_cap, 0u);
  if (wave_cap < kWaveCap) {
    std::printf("# fd budget clamps the storm's waves to %zu receivers\n",
                wave_cap);
  }
  const std::uint64_t seed = 0xfeedd00d;
  ChaChaRng rng(seed);
  const SystemParams sp = test::test_params(2, seed ^ 0xfa157);
  test::FeedServer server(SecurityManager(sp, rng));
  daemon::ShardRouter& router = server.router();

  constexpr std::size_t kThreads = 4;
  // Aggregate violations instead of 10k+ per-receiver EXPECTs so a broken
  // run fails with counts, not megabytes of log.
  std::atomic<std::size_t> not_current{0}, wrong_period{0}, no_replay{0};
  std::atomic<std::size_t> verdicts{0}, errors{0}, missed_finale{0};
  std::size_t done = 0;
  while (done < total) {
    const std::size_t wave = std::min(wave_cap, total - done);
    const std::vector<KeyFileData> keys = server.add_users(wave);

    // Park the herd: its connections are open while the wave misses a
    // New-period.
    std::vector<client::Conn> herd;
    herd.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) herd.emplace_back(server.sock());
    router.new_period_all();
    const std::uint64_t period = router.status().period;
    const Bytes finale = str("storm-finale");
    const Bytes sealed = router.encrypt(finale, 0).ct;

    // Release the herd: every connection catches its receiver up at once,
    // and recovery must restore service — the finale opens for everyone.
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < wave; i += kThreads) {
          Receiver rx(keys[i].sp, keys[i].key, keys[i].manager_vk);
          try {
            const client::CatchUpReport rep =
                client::catch_up(herd[i], rx, kMs);
            if (rep.applied != 1) ++no_replay;
            verdicts += rep.verdicts;
            Reader r(sealed);
            const ContentMessage msg =
                ContentMessage::deserialize(r, rx.params().group);
            if (open_content(rx.params(), rx.key(), msg) != finale) {
              ++missed_finale;
            }
          } catch (const Error&) {
            ++errors;
          }
          if (rx.state() != ReceiverState::kCurrent) ++not_current;
          if (rx.period() != period) ++wrong_period;
        }
      });
    }
    for (std::thread& th : pool) th.join();
    done += wave;
  }

  EXPECT_EQ(not_current.load(), 0u) << "receivers stuck stale";
  EXPECT_EQ(wrong_period.load(), 0u);
  EXPECT_EQ(no_replay.load(), 0u) << "a receiver missed its replayed epoch";
  EXPECT_EQ(verdicts.load(), 0u) << "an archive that holds the gap evicted";
  EXPECT_EQ(errors.load(), 0u) << "catch-up or post-recovery decrypt failed";
  EXPECT_EQ(missed_finale.load(), 0u) << "post-recovery content lost";
  // One subscribe per receiver, each replaying exactly the missed epoch.
  EXPECT_EQ(server.reactor().stats().feed_replayed, total);
}

// ---------------------------------------------------------------------------
// SimFeed — Reactor+FeedHub fan-out over a lossy SimCluster.

constexpr auto kDeadline = std::chrono::seconds(10);

/// `bcast new-period period=<p> bundles=...` -> p; nullopt otherwise.
std::optional<std::uint64_t> frame_period(const std::string& line) {
  constexpr std::string_view kPrefix = "bcast new-period period=";
  if (line.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::size_t end = line.find(' ', kPrefix.size());
  return daemon::parse_u64(
      std::string_view(line).substr(kPrefix.size(), end - kPrefix.size()));
}

struct FeedSub {
  client::Conn conn;
  std::uint64_t from = 0;                // periods (from, final] are owed
  std::vector<std::uint64_t> seen;
};

void run_feed_churn(std::uint64_t seed) {
  SimCluster cluster(/*shards=*/2, /*followers=*/1, seed,
                     LinkFaults{.ack_loss_per_mille = 150, .dup_per_mille = 80});

  // Replay source: the primary's router, exactly what the daemon serves.
  daemon::FeedHub hub;
  hub.set_replay([&cluster](std::optional<std::uint64_t> from) {
    return cluster.primary().router().catch_up(from);
  });
  SimNode& primary = cluster.primary();
  test::FeedFrontEnd h(hub, [&primary](const std::string& line,
                                       daemon::Reply reply) {
    const auto resp = primary.request(line);
    reply({resp.value_or("err node-dead"), false});
  });
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  std::vector<FeedSub> subs;  // subs[0] is the canary: never killed
  std::uint64_t last_period = 0;
  std::size_t killed = 0;

  auto add_sub = [&](std::uint64_t from) {
    FeedSub s{.conn = client::Conn(h.sock()), .from = from, .seen = {}};
    const daemon::Response r = client::subscribe(s.conn, from, kMs);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.fields.at("period"), std::to_string(last_period));
    ASSERT_EQ(r.fields.at("replayed"), std::to_string(last_period - from));
    ASSERT_EQ(r.fields.count("evicted"), 0u);  // every archive holds the gap
    subs.push_back(std::move(s));
  };

  add_sub(0);  // the canary rides the stream end to end
  add_sub(0);
  add_sub(0);
  if (::testing::Test::HasFatalFailure()) return;

  client::Conn control(h.sock());

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    // A follower power-cut mid-run, rebooted two rounds later: the feed
    // must keep publishing while replication degrades and re-seeds.
    if (round == 3) cluster.kill_follower(0);
    if (round == 5) cluster.restart_follower(0, seed + 77);

    const std::string raw = control.request("new-period", kMs);
    const auto resp = daemon::parse_response(raw);
    ASSERT_TRUE(resp.has_value() && resp->ok) << raw;
    const auto period = daemon::parse_u64(resp->fields.at("period"));
    ASSERT_TRUE(period.has_value());
    const std::string frame = "bcast new-period period=" +
                              std::to_string(*period) +
                              " bundles=" + resp->fields.at("bundles");
    last_period = *period;
    hub.publish(frame, *period);

    // Kill-mid-broadcast: yank a subscriber right behind the publish, so
    // the fan-out races its death. Nobody else may lose a frame for it.
    if (subs.size() > 2 && rng() % 3 == 0) {
      const std::size_t victim = 1 + rng() % (subs.size() - 1);
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(victim));
      ++killed;
    }

    // The canary consuming this round's frame serializes the pipeline:
    // once it lands, the hub's pending queue is drained, so the next
    // subscribe's replay can never race a still-pending frame into a
    // duplicate delivery.
    for (;;) {
      const auto line = subs[0].conn.recv(kMs);
      ASSERT_TRUE(line.has_value()) << "canary starved";
      const auto p = frame_period(*line);
      ASSERT_TRUE(p.has_value()) << *line;
      subs[0].seen.push_back(*p);
      if (*p == last_period) break;
    }

    // Churn in a late joiner with a random resume point; the replay must
    // bridge it to the live stream.
    if (rng() % 2 == 0 || subs.size() < 3) {
      add_sub(rng() % (last_period + 1));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Every survivor owes a gapless (from, final] — replayed epochs
  // seamlessly followed by live pushes, unaffected by the killed peers.
  for (std::size_t i = 0; i < subs.size(); ++i) {
    SCOPED_TRACE("subscriber " + std::to_string(i));
    FeedSub& s = subs[i];
    while (s.seen.size() < last_period - s.from) {
      const auto line = s.conn.recv(kMs);
      ASSERT_TRUE(line.has_value()) << "stream stalled " << s.seen.size()
                                    << " frames into (" << s.from << ", "
                                    << last_period << "]";
      const auto p = frame_period(*line);
      ASSERT_TRUE(p.has_value()) << *line;
      s.seen.push_back(*p);
    }
    ASSERT_EQ(s.seen.size(), last_period - s.from);
    for (std::size_t k = 0; k < s.seen.size(); ++k) {
      ASSERT_EQ(s.seen[k], s.from + 1 + k) << "gap or duplicate in the stream";
    }
  }

  // The reactor noticed every yanked subscriber by now or will on the
  // next fan-out; nudge it with one more frame and converge the gauge.
  hub.publish("bcast new-period period=" + std::to_string(last_period + 1) +
                  " bundles=",
              last_period + 1);
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  while (h.reactor().stats().subscribers != subs.size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "subscriber gauge stuck at " << h.reactor().stats().subscribers
        << ", want " << subs.size() << " (killed " << killed << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = h.reactor().stats();
  EXPECT_GE(stats.feed_replayed, 1u);

  // The cluster itself stayed healthy under the churn: the rebooted
  // follower re-seeds and converges to the primary's epoch.
  EXPECT_TRUE(cluster.wait_converged(std::chrono::milliseconds(20000)));
}

TEST(SimFeed, ChurnAndKillMidBroadcastUnderLossyLinks) {
  for (std::uint64_t seed = 1; seed <= sweep_seeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_feed_churn(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dfky::sim
