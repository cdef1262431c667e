// SecurityManager / Receiver lifecycle integration tests: unlimited adds,
// saturation-triggered period changes, receivers staying in sync, revoked
// users staying out (paper Sect. 2 scalability objectives).
#include "core/manager.h"

#include <gtest/gtest.h>

#include "core/receiver.h"
#include "rng/chacha_rng.h"
#include "test_util.h"

namespace dfky {
namespace {

TEST(Manager, SetupState) {
  ChaChaRng rng(100);
  SecurityManager mgr(test::test_params(4), rng);
  EXPECT_EQ(mgr.period(), 0u);
  EXPECT_EQ(mgr.saturation_level(), 0u);
  EXPECT_EQ(mgr.saturation_limit(), 4u);
  EXPECT_TRUE(mgr.users().empty());
}

TEST(Manager, AddUserIssuesWorkingKeys) {
  ChaChaRng rng(101);
  SecurityManager mgr(test::test_params(3), rng);
  const auto u = mgr.add_user(rng);
  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_EQ(decrypt(mgr.params(), u.key, ct), m);
  EXPECT_EQ(mgr.user(u.id).x, u.key.x);
}

TEST(Manager, AddUserValuesAreFreshAndOutsidePlaceholders) {
  ChaChaRng rng(102);
  SecurityManager mgr(test::test_params(5), rng);
  std::set<std::string> seen;
  for (int i = 0; i < 50; ++i) {
    const auto u = mgr.add_user(rng);
    EXPECT_GT(u.key.x, Bigint(5));
    EXPECT_TRUE(seen.insert(u.key.x.to_hex()).second);
  }
}

TEST(Manager, JoinQueryRespectsReservedValues) {
  ChaChaRng rng(103);
  SecurityManager mgr(test::test_params(4), rng);
  EXPECT_THROW(mgr.add_user_with_value(Bigint(3)), ContractError);
  EXPECT_THROW(mgr.add_user_with_value(Bigint(0)), ContractError);
  const auto u = mgr.add_user_with_value(Bigint(1234));
  EXPECT_EQ(u.key.x, Bigint(1234));
  EXPECT_THROW(mgr.add_user_with_value(Bigint(1234)), ContractError);
}

TEST(Manager, RemoveUserWithinSaturation) {
  ChaChaRng rng(104);
  SecurityManager mgr(test::test_params(3), rng);
  const auto a = mgr.add_user(rng);
  const auto b = mgr.add_user(rng);
  const auto bundle = mgr.remove_user(a.id, rng);
  EXPECT_FALSE(bundle.has_value());  // no period change needed
  EXPECT_EQ(mgr.saturation_level(), 1u);
  EXPECT_TRUE(mgr.is_revoked(a.id));

  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_THROW(decrypt(mgr.params(), a.key, ct), ContractError);
  EXPECT_EQ(decrypt(mgr.params(), b.key, ct), m);
}

TEST(Manager, DoubleRevocationRejected) {
  ChaChaRng rng(105);
  SecurityManager mgr(test::test_params(3), rng);
  const auto a = mgr.add_user(rng);
  mgr.remove_user(a.id, rng);
  EXPECT_THROW(mgr.remove_user(a.id, rng), ContractError);
}

TEST(Manager, UnknownUserRejected) {
  ChaChaRng rng(106);
  SecurityManager mgr(test::test_params(3), rng);
  EXPECT_THROW(mgr.remove_user(99, rng), ContractError);
}

TEST(Manager, SaturationOverflowTriggersNewPeriod) {
  ChaChaRng rng(107);
  SecurityManager mgr(test::test_params(2), rng);
  std::vector<SecurityManager::AddedUser> users;
  for (int i = 0; i < 3; ++i) users.push_back(mgr.add_user(rng));

  EXPECT_FALSE(mgr.remove_user(users[0].id, rng).has_value());
  EXPECT_FALSE(mgr.remove_user(users[1].id, rng).has_value());
  EXPECT_EQ(mgr.saturation_level(), 2u);
  // Third removal overflows the limit: a reset bundle must be emitted.
  const auto bundle = mgr.remove_user(users[2].id, rng);
  ASSERT_TRUE(bundle.has_value());
  EXPECT_EQ(mgr.period(), 1u);
  EXPECT_EQ(bundle->reset.new_period, 1u);
  EXPECT_EQ(mgr.saturation_level(), 1u);  // the triggering removal counted
  EXPECT_TRUE(bundle->verify(mgr.params().group, mgr.verification_key()));
}

TEST(Manager, ReceiversFollowAcrossManyPeriods) {
  ChaChaRng rng(108);
  SecurityManager mgr(test::test_params(2), rng);
  const auto survivor = mgr.add_user(rng);
  Receiver receiver(mgr.params(), survivor.key, mgr.verification_key());

  // Churn: 10 users come and go, forcing several period changes.
  for (int round = 0; round < 10; ++round) {
    const auto victim = mgr.add_user(rng);
    const auto bundle = mgr.remove_user(victim.id, rng);
    if (bundle) receiver.apply_reset(*bundle);
    EXPECT_EQ(receiver.period(), mgr.period());
    const Gelt m = mgr.params().group.random_element(rng);
    const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
    EXPECT_EQ(receiver.decrypt(ct), m) << "round " << round;
  }
  EXPECT_GE(mgr.period(), 4u);
}

TEST(Manager, ProactiveNewPeriod) {
  ChaChaRng rng(109);
  SecurityManager mgr(test::test_params(3), rng);
  const auto u = mgr.add_user(rng);
  Receiver receiver(mgr.params(), u.key, mgr.verification_key());
  const auto bundle = mgr.new_period(rng);
  EXPECT_EQ(mgr.period(), 1u);
  EXPECT_EQ(mgr.saturation_level(), 0u);
  receiver.apply_reset(bundle);
  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_EQ(receiver.decrypt(ct), m);
}

TEST(Manager, RevokedReceiverStaysOutAcrossPeriods) {
  ChaChaRng rng(110);
  SecurityManager mgr(test::test_params(2), rng);
  const auto bad = mgr.add_user(rng);
  // Strict mode: failure to follow a reset surfaces as a throw.
  Receiver bad_receiver(mgr.params(), bad.key, mgr.verification_key(),
                        /*strict=*/true);
  mgr.remove_user(bad.id, rng);

  // Force a period change with fresh victims; the revoked receiver cannot
  // apply the reset (its key cannot open the message).
  const auto v1 = mgr.add_user(rng);
  const auto v2 = mgr.add_user(rng);
  mgr.remove_user(v1.id, rng);
  const auto bundle = mgr.remove_user(v2.id, rng);
  ASSERT_TRUE(bundle.has_value());
  EXPECT_THROW(bad_receiver.apply_reset(*bundle), Error);

  // And its stale key cannot read period-1 content.
  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_THROW(bad_receiver.decrypt(ct), ContractError);  // period mismatch
  UserKey forced = bad.key;
  forced.period = mgr.period();
  EXPECT_FALSE(decrypt(mgr.params(), forced, ct) == m);
}

TEST(Manager, PlainAndHybridResetsBothWork) {
  for (const ResetMode mode : {ResetMode::kPlain, ResetMode::kHybrid}) {
    ChaChaRng rng(111);
    SecurityManager mgr(test::test_params(2), rng, mode);
    const auto u = mgr.add_user(rng);
    Receiver receiver(mgr.params(), u.key, mgr.verification_key());
    receiver.apply_reset(mgr.new_period(rng));
    const Gelt m = mgr.params().group.random_element(rng);
    const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
    EXPECT_EQ(receiver.decrypt(ct), m);
  }
}

TEST(Manager, ResetKemTakesOnlyACompleteEncryptorForTheCurrentKey) {
  // new_period seals its KEM with the Encryptor it is offered when that
  // one is complete and holds the current key, and falls back otherwise.
  // Fed the same randomness, every choice yields the same bundle, and a
  // stale or partial Encryptor never seals under the wrong key.
  ChaChaRng rng(4101);
  SecurityManager base(test::test_params(3, 4102), rng);
  const auto alice = base.add_user(rng);
  base.set_generator_tables(GeneratorTables::build(base.params()));
  const Encryptor current =
      Encryptor(base.params(), base.public_key()).with_tables();
  const Encryptor partial(base.params(), base.public_key());
  SecurityManager moved = base;
  moved.new_period(rng);
  const Encryptor stale =
      Encryptor(moved.params(), moved.public_key()).with_tables();

  const auto bundle_bytes = [&](const Encryptor* kem) {
    SecurityManager m = base;
    ChaChaRng r(4103);
    const SignedResetBundle b = m.new_period(r, kem);
    Writer w;
    b.serialize(w, m.params().group);
    return std::move(w).take();
  };
  const Bytes plain = bundle_bytes(nullptr);
  EXPECT_EQ(bundle_bytes(&current), plain);
  EXPECT_EQ(bundle_bytes(&partial), plain);
  EXPECT_EQ(bundle_bytes(&stale), plain);

  SecurityManager m = base;
  Receiver rx(m.params(), alice.key, m.verification_key());
  rx.apply_reset(m.new_period(rng, &current));
  EXPECT_EQ(rx.period(), m.period());
  const Gelt msg = m.params().group.random_element(rng);
  EXPECT_EQ(rx.decrypt(encrypt(m.params(), m.public_key(), msg, rng)), msg);
}

TEST(Manager, BatchRemovalWithinPeriod) {
  ChaChaRng rng(113);
  SecurityManager mgr(test::test_params(4), rng);
  const auto survivor = mgr.add_user(rng);
  std::vector<std::uint64_t> victims;
  for (int i = 0; i < 3; ++i) victims.push_back(mgr.add_user(rng).id);
  const auto bundles = mgr.remove_users(victims, rng);
  EXPECT_TRUE(bundles.empty());  // 3 <= v = 4: fits in one period
  EXPECT_EQ(mgr.saturation_level(), 3u);
  for (std::uint64_t id : victims) EXPECT_TRUE(mgr.is_revoked(id));
  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_EQ(decrypt(mgr.params(), survivor.key, ct), m);
}

TEST(Manager, BatchRemovalRollsPeriods) {
  ChaChaRng rng(114);
  SecurityManager mgr(test::test_params(2), rng);
  const auto survivor = mgr.add_user(rng);
  Receiver receiver(mgr.params(), survivor.key, mgr.verification_key());
  std::vector<std::uint64_t> victims;
  for (int i = 0; i < 5; ++i) victims.push_back(mgr.add_user(rng).id);
  const auto bundles = mgr.remove_users(victims, rng);
  // 5 removals with v = 2: the period rolls after each saturated pair.
  EXPECT_EQ(bundles.size(), 2u);
  for (const auto& b : bundles) receiver.apply_reset(b);
  EXPECT_EQ(receiver.period(), mgr.period());
  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_EQ(receiver.decrypt(ct), m);
}

TEST(Manager, BatchRemovalValidatesAtomically) {
  ChaChaRng rng(115);
  SecurityManager mgr(test::test_params(3), rng);
  const auto a = mgr.add_user(rng);
  const auto b = mgr.add_user(rng);
  // Duplicate id in the batch: nothing may change.
  const std::vector<std::uint64_t> dup = {a.id, a.id};
  EXPECT_THROW(mgr.remove_users(dup, rng), ContractError);
  EXPECT_FALSE(mgr.is_revoked(a.id));
  // Unknown id mixed in: nothing may change.
  const std::vector<std::uint64_t> unknown = {b.id, 999};
  EXPECT_THROW(mgr.remove_users(unknown, rng), ContractError);
  EXPECT_FALSE(mgr.is_revoked(b.id));
}

TEST(Manager, UnlimitedRevocationsAcrossPeriods) {
  // More total revocations than v is impossible for the bounded baseline but
  // routine here: 3 * v + 1 removals with v = 2.
  ChaChaRng rng(112);
  SecurityManager mgr(test::test_params(2), rng);
  const auto survivor = mgr.add_user(rng);
  Receiver receiver(mgr.params(), survivor.key, mgr.verification_key());
  for (int i = 0; i < 7; ++i) {
    const auto victim = mgr.add_user(rng);
    const auto bundle = mgr.remove_user(victim.id, rng);
    if (bundle) receiver.apply_reset(*bundle);
  }
  std::size_t revoked = 0;
  for (const UserRecord& u : mgr.users()) {
    if (u.revoked) ++revoked;
  }
  EXPECT_EQ(revoked, 7u);
  const Gelt m = mgr.params().group.random_element(rng);
  const Ciphertext ct = encrypt(mgr.params(), mgr.public_key(), m, rng);
  EXPECT_EQ(receiver.decrypt(ct), m);
}

}  // namespace
}  // namespace dfky
