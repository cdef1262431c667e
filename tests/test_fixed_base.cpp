#include "group/fixed_base.h"

#include <gtest/gtest.h>

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

TEST(Encryptor, RejectsANonElementMessage) {
  const SystemParams sp = test::test_params(2, 30010);
  ChaChaRng rng(30011);
  const SetupResult s = setup(sp, rng);
  const Encryptor enc = Encryptor(sp, s.pk).with_tables();
  EXPECT_THROW(enc.encrypt(Gelt(Bigint(0)), rng), ContractError);
}

}  // namespace
}  // namespace dfky
