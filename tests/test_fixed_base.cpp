#include "group/fixed_base.h"

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <vector>

#include "core/scheme.h"
#include "rng/chacha_rng.h"
#include "test_util.h"

namespace dfky {
namespace {

// One case per (group, window). The 127-bit test group fits its modulus in
// two limbs; sec512 runs the flat-limb kernel over eight. A case prints as
// its window, so the test names carry it.
struct WindowCase {
  ParamId group;
  std::size_t window;
};
void PrintTo(const WindowCase& c, std::ostream* os) { *os << c.window; }

std::vector<WindowCase> windows_on(ParamId group) {
  std::vector<WindowCase> out;
  for (std::size_t w = 1; w <= 8; ++w) out.push_back({group, w});
  return out;
}

class FixedBaseWindows : public ::testing::TestWithParam<WindowCase> {
 protected:
  Group group() const { return Group(GroupParams::named(GetParam().group)); }
  std::size_t window() const { return GetParam().window; }
};

TEST_P(FixedBaseWindows, MatchesPlainPow) {
  const Group g = group();
  ChaChaRng rng(30001);
  const Gelt base = g.random_element(rng);
  const FixedBaseTable table(g, base, window());
  for (int i = 0; i < 20; ++i) {
    const Bigint e = g.random_exponent(rng);
    EXPECT_EQ(table.pow(g, e), g.pow(base, e));
  }
}

TEST_P(FixedBaseWindows, EdgeExponents) {
  const Group g = group();
  ChaChaRng rng(30002);
  const Gelt base = g.random_element(rng);
  const FixedBaseTable table(g, base, window());
  EXPECT_EQ(table.pow(g, Bigint(0)), g.one());
  EXPECT_EQ(table.pow(g, Bigint(1)), base);
  EXPECT_EQ(table.pow(g, g.order()), g.one());
  EXPECT_EQ(table.pow(g, g.order() - Bigint(1)), g.inv(base));
  EXPECT_EQ(table.pow(g, Bigint(-2)), g.inv(g.mul(base, base)));
  // Every digit at its maximum: the last entry of each row.
  const Bigint all_ones =
      (Bigint(1) << (g.order().bit_length() - 1)) - Bigint(1);
  EXPECT_EQ(table.pow(g, all_ones), g.pow(base, all_ones));
}

INSTANTIATE_TEST_SUITE_P(Windows, FixedBaseWindows,
                         ::testing::ValuesIn(windows_on(ParamId::kTest128)));
INSTANTIATE_TEST_SUITE_P(Sec512, FixedBaseWindows,
                         ::testing::ValuesIn(windows_on(ParamId::kSec512)));

TEST(FixedBase, RejectsBadWindow) {
  const Group g = test::test_group();
  EXPECT_THROW(FixedBaseTable(g, g.generator(), 0), ContractError);
  EXPECT_THROW(FixedBaseTable(g, g.generator(), 9), ContractError);
}

TEST(FixedBase, TableSizeMatchesGeometry) {
  const Group g(GroupParams::named(ParamId::kSec512));
  const FixedBaseTable table(g, g.generator(), 4);
  const std::size_t digits = (g.order().bit_length() + 3) / 4;
  EXPECT_EQ(table.table_size(), digits * 15);
  EXPECT_EQ(table.bytes(), digits * 15 * (g.p().bit_length() / 8));
}

TEST(FixedBase, WorksOnCurves) {
  const Group g{CurveSpec::secp256k1()};
  ChaChaRng rng(30003);
  const FixedBaseTable table(g, g.generator(), 4);
  for (int i = 0; i < 5; ++i) {
    const Bigint e = g.random_exponent(rng);
    EXPECT_EQ(table.pow(g, e), g.pow_g(e));
  }
}

TEST(Encryptor, CiphertextsDecryptLikePlainEncrypt) {
  ChaChaRng rng(30004);
  const SystemParams sp = test::test_params(6, 30005);
  const SetupResult s = setup(sp, rng);
  const Encryptor enc = Encryptor(sp, s.pk).with_tables();
  const UserKey sk = issue_user_key(sp, s.msk, Bigint(4242), 0);
  for (int i = 0; i < 5; ++i) {
    const Gelt m = sp.group.random_element(rng);
    const Ciphertext ct = enc.encrypt(m, rng);
    EXPECT_EQ(decrypt(sp, sk, ct), m);
  }
}

void expect_same(const Ciphertext& a, const Ciphertext& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.u2, b.u2);
  EXPECT_EQ(a.w, b.w);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].z, b.slots[i].z);
    EXPECT_EQ(a.slots[i].hr, b.slots[i].hr);
  }
}

TEST(Encryptor, MatchesPlainEncryptWithSameRandomness) {
  // The tables change how each power is computed, never which one: fed
  // the same ChaChaRng stream, plain encrypt, a table-less Encryptor, one
  // that carried tables over a revoke and a complete one must agree.
  const SystemParams sp = test::test_params(4, 30006);
  ChaChaRng rng_setup(30007);
  SetupResult s = setup(sp, rng_setup);
  const Gelt m = sp.group.pow_g(Bigint(12345));
  const Encryptor before = Encryptor(sp, s.pk).with_tables();
  revoke_into_slot(sp, s.msk, s.pk, 1, Bigint(777));

  const Encryptor partial(before, s.pk);  // every base but h_2 carries over
  EXPECT_EQ(partial.tables(), sp.v + 2);
  EXPECT_FALSE(partial.complete());
  const Encryptor full = partial.with_tables();
  EXPECT_TRUE(full.complete());

  ChaChaRng r0(555), r1(555), r2(555), r3(555);
  const Ciphertext plain = encrypt(sp, s.pk, m, r0);
  expect_same(plain, Encryptor(sp, s.pk).encrypt(m, r1));
  expect_same(plain, partial.encrypt(m, r2));
  expect_same(plain, full.encrypt(m, r3));
  // A stale Encryptor encrypts under the old key: the revoked slot differs.
  ChaChaRng r4(555);
  EXPECT_NE(before.encrypt(m, r4).slots[1].z, plain.slots[1].z);
}

TEST(Encryptor, NewKeyKeepsOnlyTheGeneratorTables) {
  const SystemParams sp = test::test_params(3, 30008);
  ChaChaRng rng(30009);
  const SetupResult a = setup(sp, rng);
  const SetupResult b = setup(sp, rng);  // as after a new period: y, h all move
  const Encryptor next(Encryptor(sp, a.pk).with_tables(), b.pk);
  EXPECT_EQ(next.tables(), 2u);  // g and g'
  EXPECT_EQ(Encryptor(sp, a.pk).tables(), 0u);
}

TEST(Encryptor, StoppedBuildKeepsTheTablesFinishedSoFar) {
  // The shard's table builder passes its shutdown check as `stop`: asked
  // before each digit row, and once it answers true the table in hand is
  // dropped and the copy keeps only the finished ones.
  const SystemParams sp = test::test_params(4, 30012);
  ChaChaRng rng(30013);
  const SetupResult s = setup(sp, rng);
  const std::size_t rows =
      (sp.group.order().bit_length() + kFixedBaseWindow - 1) / kFixedBaseWindow;
  const Encryptor none(sp, s.pk);
  std::size_t asked = 0;
  const Encryptor two = none.with_tables([&] { return ++asked > 2 * rows + 1; });
  EXPECT_EQ(asked, 2 * rows + 2);  // stopped on the third table's second row
  EXPECT_EQ(two.tables(), 2u);
  EXPECT_EQ(none.with_tables([] { return true; }).tables(), 0u);
  EXPECT_THROW(FixedBaseTable(sp.group, s.pk.g, kFixedBaseWindow,
                              [] { return true; }),
               BuildStopped);
  // A stopped copy encrypts like any partial one, and can be finished.
  const Gelt m = sp.group.pow_g(Bigint(99));
  ChaChaRng r0(556), r1(556);
  expect_same(encrypt(sp, s.pk, m, r0), two.encrypt(m, r1));
  EXPECT_TRUE(two.with_tables().complete());
}

/// A slot's h = g^a g'^b by the bit-by-bit 2-term multiexp: the formula
/// public keys used before the generator tables, kept as the oracle.
Gelt multiexp_slot(const SystemParams& sp, const Bigint& a, const Bigint& b) {
  const std::array<Gelt, 2> bases = {sp.g, sp.g2};
  const std::array<Bigint, 2> exps = {a, b};
  return multiexp(sp.group, bases, exps);
}

class GeneratorTablesOn : public ::testing::TestWithParam<ParamId> {};

TEST_P(GeneratorTablesOn, PublicKeysMatchTheMultiexpFormula) {
  // The g/g' tables change how y and each h are computed, never their
  // values: for random master secrets and revoked identities, the table
  // path, the two-pow path and the multiexp formula give equal keys.
  ChaChaRng rng(30014);
  const SystemParams sp =
      SystemParams::create(Group(GroupParams::named(GetParam())), 4, rng);
  const GeneratorTables gens = GeneratorTables::build(sp);
  ASSERT_TRUE(gens.g && gens.g2);
  for (int round = 0; round < 3; ++round) {
    const SetupResult s = setup(sp, rng);
    PublicKey tabled = make_fresh_public_key(sp, s.msk, 5, gens);
    PublicKey plain = make_fresh_public_key(sp, s.msk, 5);
    EXPECT_EQ(tabled, plain);
    EXPECT_EQ(tabled.y, multiexp_slot(sp, s.msk.a.coeff(0), s.msk.b.coeff(0)));
    for (const PkSlot& slot : tabled.slots) {
      EXPECT_EQ(slot.h,
                multiexp_slot(sp, s.msk.a.eval(slot.z), s.msk.b.eval(slot.z)));
    }
    for (std::size_t l = 0; l < sp.v; ++l) {
      const Bigint x = rng.uniform_nonzero_below(sp.group.order());
      revoke_into_slot(sp, s.msk, tabled, l, x, gens);
      revoke_into_slot(sp, s.msk, plain, l, x);
      EXPECT_EQ(tabled.slots[l].h,
                multiexp_slot(sp, s.msk.a.eval(x), s.msk.b.eval(x)));
    }
    EXPECT_EQ(tabled, plain);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Groups, GeneratorTablesOn,
    ::testing::Values(ParamId::kTest128, ParamId::kSec512),
    [](const ::testing::TestParamInfo<ParamId>& info) {
      return info.param == ParamId::kTest128 ? "test128" : "sec512";
    });

TEST(Encryptor, TakesTheGeneratorTablesItIsGiven) {
  // The shard's Encryptors hold the one g/g' pair, never their own copy:
  // both the constructor and with_tables take the given tables.
  const SystemParams sp = test::test_params(3, 30016);
  ChaChaRng rng(30017);
  const SetupResult s = setup(sp, rng);
  const GeneratorTables gens = GeneratorTables::build(sp);
  const Encryptor seeded(sp, s.pk, gens);
  EXPECT_EQ(seeded.tables(), 2u);
  EXPECT_EQ(seeded.generators().g, gens.g);
  EXPECT_EQ(seeded.generators().g2, gens.g2);
  const Encryptor full = Encryptor(sp, s.pk).with_tables({}, gens);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.generators().g, gens.g);
  EXPECT_EQ(full.generators().g2, gens.g2);
  const Gelt m = sp.group.pow_g(Bigint(4242));
  ChaChaRng r0(557), r1(557), r2(557);
  const Ciphertext plain = encrypt(sp, s.pk, m, r0);
  expect_same(plain, seeded.encrypt(m, r1));
  expect_same(plain, full.encrypt(m, r2));
}

TEST(Encryptor, RejectsANonElementMessage) {
  const SystemParams sp = test::test_params(2, 30010);
  ChaChaRng rng(30011);
  const SetupResult s = setup(sp, rng);
  const Encryptor enc = Encryptor(sp, s.pk).with_tables();
  EXPECT_THROW(enc.encrypt(Gelt(Bigint(0)), rng), ContractError);
}

}  // namespace
}  // namespace dfky
