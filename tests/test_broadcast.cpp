// The broadcast channel end to end: `add-user`, `revoke`, `new-period` and
// `encrypt` through dfkyd's RequestHandler, and subscribers applying the
// served `bcast` lines with client::apply_frame.
#include <gtest/gtest.h>

#include "core/content.h"
#include "core/manager.h"
#include "rng/chacha_rng.h"
#include "serial/codec.h"
#include "served_channel.h"
#include "test_util.h"

namespace dfky {
namespace {

using test::str;

struct SystemFixture {
  ChaChaRng rng{7001};
  SystemParams sp{test::test_params(3, 7002)};
  test::ServedChannel channel{SecurityManager(sp, rng)};

  /// Hands every line published since the last call to `subs`.
  void deliver(std::initializer_list<test::Subscriber*> subs) {
    for (const std::string& line : channel.take()) {
      for (test::Subscriber* s : subs) s->apply(line);
    }
  }
};

TEST(System, ProviderToSubscriberDelivery) {
  SystemFixture fx;
  test::Subscriber sub = fx.channel.add_user();

  fx.channel.encrypt("movie night");
  fx.deliver({&sub});
  ASSERT_EQ(sub.content.size(), 1u);
  EXPECT_EQ(sub.content[0], str("movie night"));
  EXPECT_EQ(sub.missed, 0u);
}

TEST(System, RevokedSubscriberMissesContent) {
  SystemFixture fx;
  test::Subscriber good = fx.channel.add_user();
  test::Subscriber bad = fx.channel.add_user();

  fx.channel.ok("revoke " + std::to_string(bad.id));
  fx.channel.encrypt("premium");
  fx.deliver({&good, &bad});
  EXPECT_EQ(good.content.size(), 1u);
  EXPECT_TRUE(bad.content.empty());
  EXPECT_EQ(bad.missed, 1u);
}

TEST(System, FullLifecycleWithPeriodChangeOverTheBus) {
  SystemFixture fx;  // v = 3
  test::Subscriber sub = fx.channel.add_user();

  // Churn enough users to force a period change; the revoke that crosses
  // the saturation limit rolls the period and publishes its reset.
  for (int i = 0; i < 4; ++i) {
    const test::Subscriber victim = fx.channel.add_user();
    fx.channel.ok("revoke " + std::to_string(victim.id));
    fx.deliver({&sub});
  }
  EXPECT_EQ(fx.channel.router().status().period, 1u);
  EXPECT_EQ(sub.rx.period(), 1u);  // followed via the signed frame
  EXPECT_EQ(sub.failed_resets, 0u);

  fx.channel.encrypt("new period content");
  fx.deliver({&sub});
  ASSERT_EQ(sub.content.size(), 1u);
  EXPECT_EQ(sub.content[0], str("new period content"));
}

TEST(System, RevokedSubscriberCannotFollowPeriodChange) {
  SystemFixture fx;  // v = 3
  test::Subscriber bad = fx.channel.add_user();

  fx.channel.ok("revoke " + std::to_string(bad.id));
  // Fill the period and roll it.
  for (int i = 0; i < 3; ++i) {
    const test::Subscriber victim = fx.channel.add_user();
    fx.channel.ok("revoke " + std::to_string(victim.id));
    fx.deliver({&bad});
  }
  EXPECT_EQ(fx.channel.router().status().period, 1u);
  EXPECT_EQ(bad.rx.period(), 0u);  // stuck in the old period
  EXPECT_EQ(bad.failed_resets, 1u);

  fx.channel.encrypt("expired for you");
  fx.deliver({&bad});
  EXPECT_TRUE(bad.content.empty());
  EXPECT_EQ(bad.missed, 1u);
}

TEST(System, CorruptedContentPeriodDoesNotPinTheReceiverStale) {
  // A content frame's period is not authenticated. One claiming period
  // 2^54 makes a current receiver stale; the next frame it opens withdraws
  // that hint.
  SystemFixture fx;
  test::Subscriber sub = fx.channel.add_user();

  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 54;
  fx.channel.encrypt("garbled");
  const std::string line = fx.channel.take().at(0);
  const std::size_t ct_at = line.find(" ct=") + 4;
  const Bytes raw = *daemon::hex_decode(line.substr(ct_at));
  Reader r(raw);
  ContentMessage forged = ContentMessage::deserialize(r, fx.sp.group);
  forged.kem.period = kClaimed;
  Writer w;
  forged.serialize(w, fx.sp.group);
  sub.apply(line.substr(0, ct_at) + daemon::hex_encode(std::move(w).take()));
  EXPECT_EQ(sub.rx.state(), ReceiverState::kStale);
  EXPECT_EQ(sub.rx.catch_up_target(), kClaimed);
  EXPECT_EQ(sub.gaps, 1u);

  fx.channel.encrypt("the real thing");
  fx.deliver({&sub});
  ASSERT_EQ(sub.content.size(), 1u);
  EXPECT_EQ(sub.rx.state(), ReceiverState::kCurrent);
  EXPECT_EQ(sub.rx.catch_up_target(), sub.rx.period());
}

}  // namespace
}  // namespace dfky
