// Broadcast bus integration: multiple providers, many subscribers,
// revocations and period changes flowing over serialized wire messages.
#include "broadcast/provider.h"

#include <gtest/gtest.h>

#include "core/manager.h"
#include "rng/chacha_rng.h"
#include "test_util.h"

namespace dfky {
namespace {

Bytes str(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

TEST(Bus, DeliversToSubscribers) {
  BroadcastBus bus;
  int count = 0;
  const std::size_t token =
      bus.subscribe([&](const Envelope& env) { count += env.payload.size(); });
  bus.publish(Envelope{MsgType::kContent, Bytes{1, 2, 3}});
  EXPECT_EQ(count, 3);
  EXPECT_EQ(bus.messages_sent(), 1u);
  EXPECT_EQ(bus.bytes_sent(), 3u);
  bus.unsubscribe(token);
  bus.publish(Envelope{MsgType::kContent, Bytes{4}});
  EXPECT_EQ(count, 3);  // unsubscribed
  EXPECT_EQ(bus.log().size(), 2u);
}

TEST(Bus, HandlersMaySubscribeAndUnsubscribeDuringPublish) {
  BroadcastBus bus;
  int late_calls = 0;
  std::size_t self_token = 0;
  std::size_t victim_token =
      bus.subscribe([&](const Envelope&) { ++late_calls; });
  // This handler mutates the handler map mid-delivery: it unsubscribes
  // itself and a peer, and registers a brand-new subscriber.
  int mutator_calls = 0;
  self_token = bus.subscribe([&](const Envelope&) {
    ++mutator_calls;
    bus.unsubscribe(self_token);
    bus.unsubscribe(victim_token);
    bus.subscribe([&](const Envelope&) { ++late_calls; });
  });

  bus.publish(Envelope{MsgType::kContent, Bytes{1}});
  EXPECT_EQ(mutator_calls, 1);

  // Next publish: the mutator and the victim are gone; the new subscriber
  // (registered during delivery) receives it.
  const int late_before = late_calls;
  bus.publish(Envelope{MsgType::kContent, Bytes{2}});
  EXPECT_EQ(mutator_calls, 1);
  EXPECT_EQ(late_calls, late_before + 1);
}

TEST(Bus, ReentrantPublishKeepsEnvelopesIntact) {
  // A handler that publishes during delivery grows the log; the envelope
  // being delivered must not be invalidated by that reallocation.
  BroadcastBus bus;
  std::vector<Bytes> seen;
  bus.subscribe([&](const Envelope& env) {
    if (env.type == MsgType::kContent && env.payload.size() == 3) {
      // Recursive publishes, enough to force log_ reallocation.
      for (int i = 0; i < 64; ++i) {
        bus.publish(Envelope{MsgType::kPublicKeyUpdate, Bytes(100, byte(i))});
      }
    }
    seen.push_back(env.payload);
  });
  bus.publish(Envelope{MsgType::kContent, Bytes{7, 8, 9}});
  ASSERT_EQ(seen.size(), 65u);
  // The outer envelope, read after the nested publishes, is still intact.
  EXPECT_EQ(seen.back(), (Bytes{7, 8, 9}));
  EXPECT_EQ(bus.log().size(), 65u);
}

TEST(Bus, PerTypeByteAccounting) {
  BroadcastBus bus;
  bus.publish(Envelope{MsgType::kContent, Bytes(10)});
  bus.publish(Envelope{MsgType::kChangePeriod, Bytes(20)});
  bus.publish(Envelope{MsgType::kContent, Bytes(5)});
  EXPECT_EQ(bus.bytes_sent(MsgType::kContent), 15u);
  EXPECT_EQ(bus.bytes_sent(MsgType::kChangePeriod), 20u);
  EXPECT_EQ(bus.bytes_sent(MsgType::kPublicKeyUpdate), 0u);
}

struct SystemFixture {
  ChaChaRng rng{7001};
  SystemParams sp{test::test_params(3, 7002)};
  BroadcastBus bus;
  SecurityManager mgr{sp, rng};
};

TEST(System, ProviderToSubscriberDelivery) {
  SystemFixture fx;
  const auto u = fx.mgr.add_user(fx.rng);
  SubscriberClient sub(fx.sp, u.key, fx.mgr.verification_key(), fx.bus);
  ContentProvider hbo("hbo", fx.sp, fx.mgr.public_key(),
                      fx.mgr.verification_key(), fx.bus);

  hbo.broadcast(str("movie night"), fx.rng);
  ASSERT_EQ(sub.received_content().size(), 1u);
  EXPECT_EQ(sub.received_content()[0], str("movie night"));
  EXPECT_EQ(sub.missed_broadcasts(), 0u);
}

TEST(System, MultipleProvidersShareOneInfrastructure) {
  // Server-side scalability: a second provider joins with no key exchange —
  // it only reads the public key from the bus.
  SystemFixture fx;
  const auto u = fx.mgr.add_user(fx.rng);
  SubscriberClient sub(fx.sp, u.key, fx.mgr.verification_key(), fx.bus);
  ContentProvider a("alpha", fx.sp, fx.mgr.public_key(),
                    fx.mgr.verification_key(), fx.bus);
  ContentProvider b("beta", fx.sp, fx.mgr.public_key(),
                    fx.mgr.verification_key(), fx.bus);

  a.broadcast(str("from alpha"), fx.rng);
  b.broadcast(str("from beta"), fx.rng);
  ASSERT_EQ(sub.received_content().size(), 2u);
  EXPECT_EQ(sub.received_content()[1], str("from beta"));
}

TEST(System, RevokedSubscriberMissesContent) {
  SystemFixture fx;
  const auto good = fx.mgr.add_user(fx.rng);
  const auto bad = fx.mgr.add_user(fx.rng);
  SubscriberClient good_sub(fx.sp, good.key, fx.mgr.verification_key(),
                            fx.bus);
  SubscriberClient bad_sub(fx.sp, bad.key, fx.mgr.verification_key(), fx.bus);
  ContentProvider tv("tv", fx.sp, fx.mgr.public_key(),
                     fx.mgr.verification_key(), fx.bus);

  fx.mgr.remove_user(bad.id, fx.rng);
  announce_public_key(fx.bus, fx.sp.group, fx.mgr.signed_public_key(fx.rng));

  tv.broadcast(str("premium"), fx.rng);
  EXPECT_EQ(good_sub.received_content().size(), 1u);
  EXPECT_TRUE(bad_sub.received_content().empty());
  EXPECT_EQ(bad_sub.missed_broadcasts(), 1u);
}

TEST(System, ProvidersTrackKeyUpdates) {
  SystemFixture fx;
  const auto u = fx.mgr.add_user(fx.rng);
  ContentProvider tv("tv", fx.sp, fx.mgr.public_key(),
                     fx.mgr.verification_key(), fx.bus);

  // Revoke someone: the provider must pick up the new key from the bus.
  const auto victim = fx.mgr.add_user(fx.rng);
  fx.mgr.remove_user(victim.id, fx.rng);
  announce_public_key(fx.bus, fx.sp.group, fx.mgr.signed_public_key(fx.rng));
  EXPECT_EQ(tv.current_public_key().slot_ids()[0],
            fx.mgr.public_key().slot_ids()[0]);

  SubscriberClient sub(fx.sp, u.key, fx.mgr.verification_key(), fx.bus);
  tv.broadcast(str("still works"), fx.rng);
  ASSERT_EQ(sub.received_content().size(), 1u);
}

TEST(System, FullLifecycleWithPeriodChangeOverTheBus) {
  SystemFixture fx;  // v = 3
  const auto u = fx.mgr.add_user(fx.rng);
  SubscriberClient sub(fx.sp, u.key, fx.mgr.verification_key(), fx.bus);
  ContentProvider tv("tv", fx.sp, fx.mgr.public_key(),
                     fx.mgr.verification_key(), fx.bus);

  // Churn enough users to force a period change; everything over the bus.
  for (int i = 0; i < 4; ++i) {
    const auto victim = fx.mgr.add_user(fx.rng);
    const auto bundle = fx.mgr.remove_user(victim.id, fx.rng);
    if (bundle) announce_reset(fx.bus, fx.sp.group, *bundle);
    announce_public_key(fx.bus, fx.sp.group, fx.mgr.signed_public_key(fx.rng));
  }
  EXPECT_EQ(fx.mgr.period(), 1u);
  EXPECT_EQ(sub.period(), 1u);  // followed via the signed bus message
  EXPECT_EQ(sub.failed_resets(), 0u);

  tv.broadcast(str("new period content"), fx.rng);
  ASSERT_EQ(sub.received_content().size(), 1u);
  EXPECT_EQ(sub.received_content()[0], str("new period content"));
}

TEST(System, RevokedSubscriberCannotFollowPeriodChange) {
  SystemFixture fx;  // v = 3
  const auto bad = fx.mgr.add_user(fx.rng);
  SubscriberClient bad_sub(fx.sp, bad.key, fx.mgr.verification_key(), fx.bus);
  ContentProvider tv("tv", fx.sp, fx.mgr.public_key(),
                     fx.mgr.verification_key(), fx.bus);

  fx.mgr.remove_user(bad.id, fx.rng);
  // Fill the period and roll it.
  for (int i = 0; i < 3; ++i) {
    const auto victim = fx.mgr.add_user(fx.rng);
    const auto bundle = fx.mgr.remove_user(victim.id, fx.rng);
    if (bundle) announce_reset(fx.bus, fx.sp.group, *bundle);
  }
  announce_public_key(fx.bus, fx.sp.group, fx.mgr.signed_public_key(fx.rng));
  EXPECT_EQ(fx.mgr.period(), 1u);
  EXPECT_EQ(bad_sub.period(), 0u);  // stuck in the old period
  EXPECT_EQ(bad_sub.failed_resets(), 1u);

  tv.broadcast(str("expired for you"), fx.rng);
  EXPECT_TRUE(bad_sub.received_content().empty());
  EXPECT_EQ(bad_sub.missed_broadcasts(), 1u);
}

TEST(System, CorruptedContentPeriodDoesNotPinTheReceiverStale) {
  // A content frame's period is not authenticated. One claiming period
  // 2^54 makes a current receiver stale; the next frame it opens withdraws
  // that hint.
  SystemFixture fx;
  const auto u = fx.mgr.add_user(fx.rng);
  SubscriberClient sub(fx.sp, u.key, fx.mgr.verification_key(), fx.bus);
  ContentProvider tv("tv", fx.sp, fx.mgr.public_key(),
                     fx.mgr.verification_key(), fx.bus);

  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 54;
  ContentMessage forged =
      seal_content(fx.sp, fx.mgr.public_key(), str("garbled"), fx.rng);
  forged.kem.period = kClaimed;
  Writer w;
  forged.serialize(w, fx.sp.group);
  fx.bus.publish(Envelope{MsgType::kContent, std::move(w).take()});
  EXPECT_EQ(sub.state(), ReceiverState::kStale);
  EXPECT_EQ(sub.receiver().catch_up_target(), kClaimed);
  EXPECT_EQ(sub.gaps_detected(), 1u);

  tv.broadcast(str("the real thing"), fx.rng);
  ASSERT_EQ(sub.received_content().size(), 1u);
  EXPECT_EQ(sub.state(), ReceiverState::kCurrent);
  EXPECT_EQ(sub.receiver().catch_up_target(), sub.period());
}

TEST(System, EavesdropperLogIsComplete) {
  SystemFixture fx;
  ContentProvider tv("tv", fx.sp, fx.mgr.public_key(),
                     fx.mgr.verification_key(), fx.bus);
  tv.broadcast(str("one"), fx.rng);
  announce_public_key(fx.bus, fx.sp.group, fx.mgr.signed_public_key(fx.rng));
  EXPECT_EQ(fx.bus.log().size(), 2u);
  EXPECT_EQ(fx.bus.log()[0].type, MsgType::kContent);
  EXPECT_EQ(fx.bus.log()[1].type, MsgType::kPublicKeyUpdate);
}

}  // namespace
}  // namespace dfky
