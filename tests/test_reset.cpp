// New-period reset message tests (paper Sect. 4): plain and hybrid modes,
// signed bundles, receiver key updates, and exclusion of revoked receivers.
#include "core/reset_message.h"

#include <gtest/gtest.h>

#include "core/receiver.h"
#include "core/scheme.h"
#include "rng/chacha_rng.h"
#include "test_util.h"

namespace dfky {
namespace {

struct ResetFixture {
  SystemParams sp;
  ChaChaRng rng;
  SetupResult s;
  Polynomial d, e;

  explicit ResetFixture(std::size_t v, std::uint64_t seed = 2001)
      : sp(test::test_params(v, seed)),
        rng(seed ^ 0x9999),
        s(setup(sp, rng)),
        d(Polynomial::random(sp.group.zq(), v, rng)),
        e(Polynomial::random(sp.group.zq(), v, rng)) {}

  /// A table-less Encryptor for the setup key.
  Encryptor enc() const { return Encryptor(sp, s.pk); }
};

class ResetModeTest : public ::testing::TestWithParam<ResetMode> {};

TEST_P(ResetModeTest, ActiveUserRecoversRandomizers) {
  ResetFixture fx(4);
  const ResetMessage msg =
      build_reset_message(fx.enc(), fx.d, fx.e, GetParam(), fx.rng);
  EXPECT_EQ(msg.new_period, 1u);
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(123), 0);
  const auto [d2, e2] = open_reset_message(fx.sp, sk, msg);
  EXPECT_EQ(d2, fx.d);
  EXPECT_EQ(e2, fx.e);
}

TEST_P(ResetModeTest, TablesChangeNoKemCiphertext) {
  // The daemon seals a reset with the shard's complete Encryptor when it
  // holds the current key: fed the same randomness, that reset is byte for
  // byte the one a table-less Encryptor seals, and opens the same way.
  ResetFixture fx(4);
  const Encryptor full = fx.enc().with_tables();
  ASSERT_TRUE(full.complete());
  ChaChaRng r0(2002), r1(2002);
  const ResetMessage tabled =
      build_reset_message(full, fx.d, fx.e, GetParam(), r0);
  const ResetMessage plain =
      build_reset_message(fx.enc(), fx.d, fx.e, GetParam(), r1);
  Writer wt, wp;
  tabled.serialize(wt, fx.sp.group);
  plain.serialize(wp, fx.sp.group);
  EXPECT_EQ(wt.bytes(), wp.bytes());
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(124), 0);
  const auto [d2, e2] = open_reset_message(fx.sp, sk, tabled);
  EXPECT_EQ(d2, fx.d);
  EXPECT_EQ(e2, fx.e);
}

TEST_P(ResetModeTest, SerializationRoundTrip) {
  ResetFixture fx(3);
  const ResetMessage msg =
      build_reset_message(fx.enc(), fx.d, fx.e, GetParam(), fx.rng);
  Writer w;
  msg.serialize(w, fx.sp.group);
  Reader r(w.bytes());
  const ResetMessage msg2 = ResetMessage::deserialize(r, fx.sp.group);
  r.expect_end();
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(321), 0);
  const auto [d2, e2] = open_reset_message(fx.sp, sk, msg2);
  EXPECT_EQ(d2, fx.d);
  EXPECT_EQ(e2, fx.e);
}

TEST_P(ResetModeTest, RevokedUserCannotFollow) {
  ResetFixture fx(4);
  const Bigint bad_x(666);
  const UserKey bad = issue_user_key(fx.sp, fx.s.msk, bad_x, 0);
  PublicKey pk = fx.s.pk;
  revoke_into_slot(fx.sp, fx.s.msk, pk, 0, bad_x);
  const ResetMessage msg =
      build_reset_message(Encryptor(fx.sp, pk), fx.d, fx.e, GetParam(), fx.rng);
  // Plain mode: decryption has no leap-vector (ContractError).
  // Hybrid mode: same, surfaced through the KEM decryption.
  EXPECT_THROW(open_reset_message(fx.sp, bad, msg), Error);
}

INSTANTIATE_TEST_SUITE_P(Modes, ResetModeTest,
                         ::testing::Values(ResetMode::kPlain,
                                           ResetMode::kHybrid));

TEST(ResetMessage, PlainHasExpectedCiphertextCount) {
  ResetFixture fx(5);
  const ResetMessage msg = build_reset_message(fx.enc(), fx.d, fx.e,
                                               ResetMode::kPlain, fx.rng);
  EXPECT_EQ(msg.coefficient_cts.size(), 2 * 5 + 2u);
}

TEST(ResetMessage, HybridIsAsymptoticallySmaller) {
  ResetFixture fx(8);
  const ResetMessage plain = build_reset_message(fx.enc(), fx.d, fx.e,
                                                 ResetMode::kPlain, fx.rng);
  const ResetMessage hybrid = build_reset_message(fx.enc(), fx.d, fx.e,
                                                  ResetMode::kHybrid, fx.rng);
  // O(v^2) vs O(v) group elements.
  EXPECT_GT(plain.wire_size(fx.sp.group), 4 * hybrid.wire_size(fx.sp.group));
}

TEST(ResetMessage, StaleKeyFailsHybridAuthentication) {
  ResetFixture fx(4);
  UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(444), 0);
  sk.ax = fx.sp.group.zq().add(sk.ax, Bigint(1));  // stale/corrupted key
  const ResetMessage msg = build_reset_message(fx.enc(), fx.d, fx.e,
                                               ResetMode::kHybrid, fx.rng);
  EXPECT_THROW(open_reset_message(fx.sp, sk, msg), DecodeError);
}

TEST(SignedResetBundle, VerifiesAndRejectsTampering) {
  ResetFixture fx(3);
  const auto kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  SignedResetBundle bundle;
  bundle.reset = build_reset_message(fx.enc(), fx.d, fx.e,
                                     ResetMode::kHybrid, fx.rng);
  bundle.signature =
      kp.sign(fx.sp.group, bundle.signed_payload(fx.sp.group), fx.rng);
  EXPECT_TRUE(bundle.verify(fx.sp.group, kp.public_key()));

  SignedResetBundle forged = bundle;
  forged.reset.new_period += 1;
  EXPECT_FALSE(forged.verify(fx.sp.group, kp.public_key()));
}

TEST(SignedResetBundle, SerializationRoundTrip) {
  ResetFixture fx(3);
  const auto kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  SignedResetBundle bundle;
  bundle.reset = build_reset_message(fx.enc(), fx.d, fx.e,
                                     ResetMode::kPlain, fx.rng);
  bundle.signature =
      kp.sign(fx.sp.group, bundle.signed_payload(fx.sp.group), fx.rng);
  Writer w;
  bundle.serialize(w, fx.sp.group);
  Reader r(w.bytes());
  const auto bundle2 = SignedResetBundle::deserialize(r, fx.sp.group);
  r.expect_end();
  EXPECT_TRUE(bundle2.verify(fx.sp.group, kp.public_key()));
}

TEST(Receiver, FollowsPeriodChangeAndKeepsDecrypting) {
  ResetFixture fx(4);
  const auto kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(555), 0);
  Receiver receiver(fx.sp, sk, kp.public_key());

  SignedResetBundle bundle;
  bundle.reset = build_reset_message(fx.enc(), fx.d, fx.e,
                                     ResetMode::kHybrid, fx.rng);
  bundle.signature =
      kp.sign(fx.sp.group, bundle.signed_payload(fx.sp.group), fx.rng);
  receiver.apply_reset(bundle);
  EXPECT_EQ(receiver.period(), 1u);

  // The manager's updated master secret.
  const MasterSecret new_msk{fx.s.msk.a + fx.d, fx.s.msk.b + fx.e};
  const PublicKey new_pk = make_fresh_public_key(fx.sp, new_msk, 1);
  const Gelt m = fx.sp.group.random_element(fx.rng);
  const Ciphertext ct = encrypt(fx.sp, new_pk, m, fx.rng);
  EXPECT_EQ(receiver.decrypt(ct), m);
}

TEST(Receiver, RejectsForgedReset) {
  ResetFixture fx(3);
  const auto manager_kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  const auto attacker_kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(321), 0);
  Receiver receiver(fx.sp, sk, manager_kp.public_key());

  SignedResetBundle bundle;
  bundle.reset = build_reset_message(fx.enc(), fx.d, fx.e,
                                     ResetMode::kHybrid, fx.rng);
  bundle.signature = attacker_kp.sign(
      fx.sp.group, bundle.signed_payload(fx.sp.group), fx.rng);
  EXPECT_THROW(receiver.apply_reset(bundle), DecodeError);
  EXPECT_EQ(receiver.period(), 0u);  // key untouched
}

TEST(Receiver, RejectsWrongPeriodReset) {
  // Strict mode preserves the original paper-identity behavior: anything
  // other than the immediate next period throws.
  ResetFixture fx(3);
  const auto kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(321), 0);
  Receiver receiver(fx.sp, sk, kp.public_key(), /*strict=*/true);

  SignedResetBundle bundle;
  bundle.reset = build_reset_message(fx.enc(), fx.d, fx.e,
                                     ResetMode::kHybrid, fx.rng);
  bundle.reset.new_period = 5;  // skips ahead
  bundle.signature =
      kp.sign(fx.sp.group, bundle.signed_payload(fx.sp.group), fx.rng);
  EXPECT_THROW(receiver.apply_reset(bundle), DecodeError);
}

TEST(Receiver, LenientModeDistinguishesFailureModes) {
  ResetFixture fx(3);
  const auto kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(321), 0);
  Receiver receiver(fx.sp, sk, kp.public_key());

  SignedResetBundle next;
  next.reset = build_reset_message(fx.enc(), fx.d, fx.e,
                                   ResetMode::kHybrid, fx.rng);
  next.signature =
      kp.sign(fx.sp.group, next.signed_payload(fx.sp.group), fx.rng);

  // Future period: gap detected, bundle quarantined, state flips to stale.
  SignedResetBundle future = next;
  future.reset.new_period = 3;
  future.signature =
      kp.sign(fx.sp.group, future.signed_payload(fx.sp.group), fx.rng);
  EXPECT_EQ(receiver.apply_reset(future), ResetOutcome::kGapDetected);
  EXPECT_EQ(receiver.state(), ReceiverState::kStale);
  EXPECT_EQ(receiver.pending_resets(), 1u);
  EXPECT_EQ(receiver.catch_up_target(), 3u);
  EXPECT_EQ(receiver.period(), 0u);  // key untouched

  // The immediate next period still applies...
  EXPECT_EQ(receiver.apply_reset(next), ResetOutcome::kApplied);
  EXPECT_EQ(receiver.period(), 1u);
  EXPECT_EQ(receiver.state(), ReceiverState::kStale);  // still missing 2..3

  // ...and a duplicate of it is idempotently ignored.
  EXPECT_EQ(receiver.apply_reset(next), ResetOutcome::kStaleIgnored);
  EXPECT_EQ(receiver.period(), 1u);

  // A bad signature throws in both modes.
  SignedResetBundle forged = next;
  forged.reset.new_period = 2;
  EXPECT_THROW(receiver.apply_reset(forged), DecodeError);
}

TEST(Receiver, DrainsPendingResetsOnceGapCloses) {
  ResetFixture fx(3);
  const auto kp = SchnorrKeyPair::generate(fx.sp.group, fx.rng);
  const UserKey sk = issue_user_key(fx.sp, fx.s.msk, Bigint(77), 0);
  Receiver receiver(fx.sp, sk, kp.public_key());

  // Build the genuine chain of three consecutive resets by evolving the
  // master secret exactly as the manager would.
  MasterSecret msk = fx.s.msk;
  PublicKey pk = fx.s.pk;
  std::vector<SignedResetBundle> chain;
  for (int i = 0; i < 3; ++i) {
    const Polynomial d = Polynomial::random(fx.sp.group.zq(), 3, fx.rng);
    const Polynomial e = Polynomial::random(fx.sp.group.zq(), 3, fx.rng);
    SignedResetBundle b;
    b.reset = build_reset_message(Encryptor(fx.sp, pk), d, e,
                                  ResetMode::kHybrid, fx.rng);
    b.signature = kp.sign(fx.sp.group, b.signed_payload(fx.sp.group), fx.rng);
    msk.a = msk.a + d;
    msk.b = msk.b + e;
    pk = make_fresh_public_key(fx.sp, msk, pk.period + 1);
    chain.push_back(std::move(b));
  }

  // Deliver out of order: 2, 3, then 1 — the receiver buffers the future
  // ones and replays them the moment the gap closes.
  EXPECT_EQ(receiver.apply_reset(chain[1]), ResetOutcome::kGapDetected);
  EXPECT_EQ(receiver.apply_reset(chain[2]), ResetOutcome::kGapDetected);
  EXPECT_EQ(receiver.pending_resets(), 2u);
  EXPECT_EQ(receiver.apply_reset(chain[0]), ResetOutcome::kApplied);
  EXPECT_EQ(receiver.period(), 3u);
  EXPECT_EQ(receiver.state(), ReceiverState::kCurrent);
  EXPECT_EQ(receiver.pending_resets(), 0u);

  // The fully caught-up key decrypts current-period content.
  const Gelt m = fx.sp.group.random_element(fx.rng);
  EXPECT_EQ(receiver.decrypt(encrypt(fx.sp, pk, m, fx.rng)), m);
}

TEST(ResetMessage, RandomizerDegreeBoundEnforced) {
  ResetFixture fx(2);
  const Polynomial too_big =
      Polynomial::random(fx.sp.group.zq(), 5, fx.rng);
  EXPECT_THROW(build_reset_message(fx.enc(), too_big, fx.e,
                                   ResetMode::kPlain, fx.rng),
               ContractError);
}

}  // namespace
}  // namespace dfky
