// Streaming-feed battery (DESIGN.md Sect. 16), two fronts:
//
//  - FeedStorm: the catch-up storm. DFKY_STORM_RECEIVERS stale
//    Receiver+RecoveryClient pairs (default 10000; 100000 is the
//    env-gated full run) all miss one New-period, then the first
//    post-gap broadcast releases the herd onto the CatchUpResponder at
//    once — the synchronous bus turns every recovery into a nested storm
//    inside one broadcast() call. Gate: zero quarantine-eligible
//    receivers left behind — every receiver back to kCurrent at the
//    manager's period, no quarantined envelopes on either side, every
//    client inside its attempt budget, and post-recovery content
//    decrypts for everyone. Herds beyond 10k run in waves of 10k so the
//    O(N^2) all-to-all bus delivery stays tractable; every wave still
//    storms a shared responder on one manager.
//
//  - SimFeed: the real Reactor+FeedHub over a lossy SimCluster.
//    Seed-swept (DFKY_SIM_SEEDS) subscriber churn: new-periods committed
//    through the cluster primary are published as feed frames,
//    subscribers join mid-stream with resume-from-period replay, some
//    are killed abruptly right after a publish (kill-mid-broadcast), a
//    follower dies and reboots under ack loss. Survivors must see a
//    gapless contiguous frame sequence from their join point to the
//    final period. tools/sanitize_check.sh re-runs SimFeed under ASan
//    and TSan with a 20-seed sweep.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "broadcast/faulty_bus.h"
#include "client/client.h"
#include "broadcast/recovery.h"
#include "core/manager.h"
#include "daemon/feed.h"
#include "daemon/protocol.h"
#include "daemon/reactor.h"
#include "rng/chacha_rng.h"
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

// ---------------------------------------------------------------------------
// FeedStorm — the catch-up storm.

TEST(FeedStorm, CatchUpStormLeavesNoReceiverBehind) {
  const std::size_t total = env_count("DFKY_STORM_RECEIVERS", 10000);
  // Beyond one wave the all-to-all bus makes the storm quadratic; waves
  // keep the full 100k run inside the test timeout while every receiver
  // still hammers the same responder on the same manager.
  constexpr std::size_t kWaveCap = 10000;
  const std::uint64_t seed = 0xfeedd00d;

  ChaChaRng rng(seed);
  const SystemParams sp = test::test_params(2, seed ^ 0xfa157);
  // Clean links: the load IS the fault. Channel-fault mixes live in
  // test_faults.cpp; here every request must land on the responder.
  FaultyBus bus(FaultPlan{.seed = seed});
  SecurityManager mgr(sp, rng);
  ChaChaRng responder_rng(seed ^ 0xd00d);
  CatchUpResponder responder(mgr, bus, responder_rng);
  ContentProvider tv("storm", sp, mgr.public_key(), bus);

  std::size_t done = 0;
  std::uint64_t nonce = 1;
  std::uint64_t requests_total = 0;
  std::uint64_t bundles_replayed_total = 0;
  // Aggregate violations instead of 10k+ per-receiver EXPECTs so a broken
  // run fails with counts, not megabytes of log.
  std::size_t not_current = 0, wrong_period = 0, quarantined = 0;
  std::size_t not_recovered = 0, over_budget = 0, no_request = 0;
  std::size_t no_replay = 0, missed_finale = 0;

  while (done < total) {
    const std::size_t wave = std::min(kWaveCap, total - done);
    std::vector<SecurityManager::AddedUser> users;
    users.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) users.push_back(mgr.add_user(rng));

    constexpr std::uint32_t kBudget = 6;
    std::vector<std::unique_ptr<SubscriberClient>> subs;
    std::vector<std::unique_ptr<RecoveryClient>> recov;
    subs.reserve(wave);
    recov.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      subs.push_back(std::make_unique<SubscriberClient>(
          sp, users[i].key, mgr.verification_key(), bus));
      const RecoveryPolicy policy{
          .attempt_budget = kBudget, .backoff_base = 1, .nonce = nonce++};
      recov.push_back(std::make_unique<RecoveryClient>(*subs.back(), bus, policy));
    }
    announce_public_key(bus, sp.group, mgr.public_key());

    // Park the herd: the whole wave misses this New-period.
    bus.drop_next_change_periods(1);
    announce_reset(bus, sp.group, mgr.new_period(rng));
    announce_public_key(bus, sp.group, mgr.public_key());

    // The first post-gap broadcast exposes the period gap. The bus is
    // synchronous, so every RecoveryClient requests, the responder
    // answers and the bundle replays — all nested inside this call.
    tv.broadcast(str("storm-payload"), rng);

    const std::uint64_t period = mgr.period();
    for (std::size_t i = 0; i < wave; ++i) {
      if (subs[i]->state() != ReceiverState::kCurrent) ++not_current;
      if (subs[i]->period() != period) ++wrong_period;
      if (subs[i]->quarantined_envelopes() != 0) ++quarantined;
      if (recov[i]->status() != RecoveryClient::Status::kRecovered) {
        ++not_recovered;
      }
      if (recov[i]->requests_sent() == 0) ++no_request;
      if (recov[i]->requests_sent() > kBudget) ++over_budget;
      if (recov[i]->bundles_replayed() == 0) ++no_replay;
      requests_total += recov[i]->requests_sent();
      bundles_replayed_total += recov[i]->bundles_replayed();
    }

    // Recovery must actually restore service: the finale decrypts for
    // every receiver in the wave.
    tv.broadcast(str("storm-finale"), rng);
    for (std::size_t i = 0; i < wave; ++i) {
      if (subs[i]->received_content().empty() ||
          subs[i]->received_content().back() != str("storm-finale")) {
        ++missed_finale;
      }
    }
    done += wave;
  }

  EXPECT_EQ(not_current, 0u) << "receivers stuck stale";
  EXPECT_EQ(wrong_period, 0u);
  EXPECT_EQ(quarantined, 0u) << "quarantine-eligible receivers left behind";
  EXPECT_EQ(not_recovered, 0u);
  EXPECT_EQ(no_request, 0u);
  EXPECT_EQ(over_budget, 0u) << "attempt budget exceeded";
  EXPECT_EQ(no_replay, 0u);
  EXPECT_EQ(missed_finale, 0u) << "post-recovery content lost";
  // Responder-side budget/backoff sanity: every receiver's request was
  // answered, none quarantined, and the storm stayed within one request
  // per receiver per backoff window.
  EXPECT_EQ(responder.requests_quarantined(), 0u);
  EXPECT_GE(responder.requests_answered(), total);
  EXPECT_EQ(responder.requests_answered(), requests_total);
  EXPECT_LE(requests_total, static_cast<std::uint64_t>(total) * 6);
  EXPECT_GE(bundles_replayed_total, total);
}

// ---------------------------------------------------------------------------
// SimFeed — Reactor+FeedHub fan-out over a lossy SimCluster.

constexpr auto kDeadline = std::chrono::seconds(10);

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(fd, 64), 0);
  return fd;
}

constexpr int kMs = 10000;  // a frame slower than this fails the test

/// `bcast new-period period=<p> bundles=...` -> p; nullopt otherwise.
std::optional<std::uint64_t> frame_period(const std::string& line) {
  constexpr std::string_view kPrefix = "bcast new-period period=";
  if (line.rfind(kPrefix, 0) != 0) return std::nullopt;
  const std::size_t end = line.find(' ', kPrefix.size());
  return daemon::parse_u64(
      std::string_view(line).substr(kPrefix.size(), end - kPrefix.size()));
}

/// A Reactor serving a SimCluster primary over a fresh unix socket, with
/// a FeedHub wired in — the daemon's front end minus the daemon.
struct FeedHarness {
  std::string dir;
  std::string sock;
  int lfd = -1;
  int wake[2] = {-1, -1};
  std::optional<daemon::Reactor> reactor;
  std::thread thr;

  FeedHarness(SimNode& node, daemon::FeedHub& hub) {
    char tmpl[] = "/tmp/dfky_feed_sim_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;
    sock = dir + "/d.sock";
    lfd = listen_unix(sock);
    EXPECT_EQ(::pipe2(wake, O_CLOEXEC), 0);
    daemon::ReactorOptions opts;
    opts.listen_fd = lfd;
    opts.wake_fd = wake[0];
    opts.workers = 2;
    opts.feed = &hub;
    const int wake_wr = wake[1];
    reactor.emplace(
        opts,
        [&node](const std::string& line, daemon::Reply reply) {
          const auto resp = node.request(line);
          reply({resp.value_or("err node-dead"), false});
        },
        std::function<std::size_t()>{},
        [wake_wr] {
          const char b = 1;
          [[maybe_unused]] const ssize_t n = ::write(wake_wr, &b, 1);
        });
    thr = std::thread([this] { reactor->run(); });
  }

  ~FeedHarness() {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake[1], &b, 1);
    thr.join();
    ::close(lfd);
    ::close(wake[0]);
    ::close(wake[1]);
    ::unlink(sock.c_str());
    ::rmdir(dir.c_str());
  }
};

struct FeedSub {
  client::Conn conn;
  std::uint64_t from = 0;                // periods (from, final] are owed
  std::vector<std::uint64_t> seen;
};

void run_feed_churn(std::uint64_t seed) {
  SimCluster cluster(/*shards=*/2, /*followers=*/1, seed,
                     LinkFaults{.ack_loss_per_mille = 150, .dup_per_mille = 80});

  // Replay source: the committed frame history, exactly what the daemon
  // rebuilds from the shards' reset archives.
  std::mutex hist_mu;
  std::vector<std::pair<std::uint64_t, std::string>> hist;
  daemon::FeedHub hub;
  hub.set_replay([&](std::optional<std::uint64_t> from) {
    daemon::FeedReplay rep;
    const std::lock_guard<std::mutex> lock(hist_mu);
    rep.current = hist.empty() ? 0 : hist.back().first;
    rep.oldest = hist.empty() ? 1 : hist.front().first;
    rep.ok = true;
    if (!from || *from >= rep.current) return rep;
    for (const auto& [p, line] : hist) {
      if (p > *from) rep.lines.push_back(line);
    }
    return rep;
  });

  FeedHarness h(cluster.primary(), hub);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  std::vector<FeedSub> subs;  // subs[0] is the canary: never killed
  std::uint64_t last_period = 0;
  std::size_t killed = 0;

  auto add_sub = [&](std::uint64_t from) {
    FeedSub s{.conn = client::Conn(h.sock), .from = from, .seen = {}};
    const daemon::Response r = client::subscribe(s.conn, from, kMs);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.fields.at("period"), std::to_string(last_period));
    ASSERT_EQ(r.fields.at("replayed"), std::to_string(last_period - from));
    subs.push_back(std::move(s));
  };

  add_sub(0);  // the canary rides the stream end to end
  add_sub(0);
  add_sub(0);
  if (::testing::Test::HasFatalFailure()) return;

  client::Conn control(h.sock);

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
    {
      const std::lock_guard<std::mutex> lock(hist_mu);
      hist.emplace_back(*period, frame);
    }
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
  while (h.reactor->stats().subscribers != subs.size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "subscriber gauge stuck at " << h.reactor->stats().subscribers
        << ", want " << subs.size() << " (killed " << killed << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = h.reactor->stats();
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
