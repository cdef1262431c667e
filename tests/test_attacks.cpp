// Executable security games: the window-adversary game (Sect. 5.1.1), the
// revive attack (Sect. 1.3), and game-machinery sanity checks.
#include <gtest/gtest.h>

#include "attacks/revive.h"
#include "attacks/window_game.h"
#include "rng/chacha_rng.h"
#include "test_util.h"

namespace dfky {
namespace {

TEST(WindowGame, OracleDiscipline) {
  ChaChaRng rng(9001);
  const SystemParams sp = test::test_params(2, 9002);
  WindowGame game(sp, rng);
  game.join(Bigint(1000), rng);
  game.join(Bigint(1001), rng);
  // At most v Join queries.
  EXPECT_THROW(game.join(Bigint(1002), rng), ContractError);
  // Revoke oracle rejects corrupted users.
  EXPECT_THROW(game.revoke_honest(0, rng), ContractError);
}

TEST(WindowGame, WindowConstraintEnforced) {
  ChaChaRng rng(9003);
  const SystemParams sp = test::test_params(2, 9004);
  WindowGame game(sp, rng);
  game.join(Bigint(1000), rng);
  game.join(Bigint(1001), rng);
  // Burn one saturation slot on an honest victim: now L + |Corr| = 3 > v.
  const auto victim = game.add_honest(rng);
  game.revoke_honest(victim, rng);
  EXPECT_THROW(game.revoke_corrupted(rng), ContractError);
}

TEST(WindowGame, CorruptedKeysFollowPeriodsUntilRevoked) {
  ChaChaRng rng(9005);
  const SystemParams sp = test::test_params(2, 9006);
  WindowGame game(sp, rng);
  game.join(Bigint(1000), rng);
  // Force a period change through honest churn.
  while (game.pk().period == 0) {
    game.revoke_honest(game.add_honest(rng), rng);
  }
  // The corrupted (not yet revoked) key must have followed.
  EXPECT_EQ(game.corrupted_keys()[0].period, game.pk().period);
  const Gelt m = sp.group.random_element(rng);
  const Ciphertext ct = encrypt(sp, game.pk(), m, rng);
  EXPECT_EQ(decrypt(sp, game.corrupted_keys()[0], ct), m);
}

TEST(WindowGame, ChallengeMachineryIsFair) {
  ChaChaRng rng(9007);
  const SystemParams sp = test::test_params(2, 9008);
  // Control strategy: an unrevoked key distinguishes perfectly, validating
  // that the challenge actually encodes sigma*.
  const WindowTrialStats stats = run_window_trials(
      sp, WindowStrategy::kUnrevokedControl, /*trials=*/20,
      /*coalition_size=*/1, rng);
  EXPECT_EQ(stats.successes, stats.trials);
  EXPECT_NEAR(stats.advantage(), 0.5, 1e-9);
}

struct ExpiryCase {
  WindowStrategy strategy;
  std::size_t coalition;
};

// Names the case by its fields. Without it gtest prints the raw bytes,
// padding included, and the test names change from run to run.
void PrintTo(const ExpiryCase& c, std::ostream* os) {
  switch (c.strategy) {
    case WindowStrategy::kExpiredConvex: *os << "ExpiredConvex"; break;
    case WindowStrategy::kExpiredInterpolation:
      *os << "ExpiredInterpolation";
      break;
    case WindowStrategy::kExpiredAcrossPeriod:
      *os << "ExpiredAcrossPeriod";
      break;
    case WindowStrategy::kUnrevokedControl: *os << "UnrevokedControl"; break;
  }
  *os << "_coalition" << c.coalition;
}

class ExpiredAdversary : public ::testing::TestWithParam<ExpiryCase> {};

TEST_P(ExpiredAdversary, AdvantageStatisticallyNegligible) {
  const auto [strategy, coalition] = GetParam();
  ChaChaRng rng(9100 + static_cast<int>(strategy));
  const SystemParams sp = test::test_params(3, 9009);
  const std::size_t trials = 60;
  const WindowTrialStats stats =
      run_window_trials(sp, strategy, trials, coalition, rng);
  // A fair coin over 60 trials stays within 0.30 of 1/2 except with
  // probability < 2^-10; an adversary with real advantage ~1 would fail.
  EXPECT_LT(stats.advantage(), 0.30);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ExpiredAdversary,
    ::testing::Values(
        ExpiryCase{WindowStrategy::kExpiredConvex, 3},
        ExpiryCase{WindowStrategy::kExpiredConvex, 1},
        ExpiryCase{WindowStrategy::kExpiredInterpolation, 3},
        ExpiryCase{WindowStrategy::kExpiredAcrossPeriod, 2}));

TEST(Revive, BaselineRevivesSchemeExpires) {
  ChaChaRng rng(9010);
  const SystemParams sp = test::test_params(3, 9011);
  const ReviveOutcome out = run_revive_attack(sp, rng);
  // Immediately after revocation both systems bar the adversary.
  EXPECT_FALSE(out.baseline_decrypts_when_revoked);
  EXPECT_FALSE(out.scheme_decrypts_when_revoked);
  // After v further revocations: the bounded baseline lets the adversary
  // back in; the paper's scheme keeps her expired.
  EXPECT_TRUE(out.baseline_revived);
  EXPECT_FALSE(out.scheme_revived);
  // The catch-up recovery protocol answers the adversary's requests but
  // must not restore her capability either.
  EXPECT_GT(out.catch_up_requests_answered, 0u);
  EXPECT_FALSE(out.scheme_revived_via_catch_up);
}

TEST(Revive, HoldsAcrossSaturationLimits) {
  for (std::size_t v : {2u, 4u, 6u}) {
    ChaChaRng rng(9012 + v);
    const SystemParams sp = test::test_params(v, 9013 + v);
    const ReviveOutcome out = run_revive_attack(sp, rng);
    EXPECT_TRUE(out.baseline_revived) << "v=" << v;
    EXPECT_FALSE(out.scheme_revived) << "v=" << v;
  }
}

}  // namespace
}  // namespace dfky
