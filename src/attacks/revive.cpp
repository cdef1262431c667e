#include "attacks/revive.h"

#include "core/receiver.h"

namespace dfky {

namespace {

/// Can the baseline adversary recover a random plaintext right now?
bool baseline_adversary_decrypts(const SystemParams& sp,
                                 const BoundedTraceRevoke& system,
                                 const BoundedTraceRevoke::UserSecret& key,
                                 Rng& rng) {
  const Gelt m = sp.group.random_element(rng);
  const Ciphertext ct = system.encrypt(m, rng);
  try {
    return system.decrypt(ct, key) == m;
  } catch (const Error&) {
    return false;
  }
}

/// Can the scheme adversary recover a random plaintext right now? Tries the
/// raw key (possibly stale) — the strongest concrete move available once the
/// reset messages are undecryptable (cf. Theorem 1).
bool scheme_adversary_decrypts(const SystemParams& sp,
                               const SecurityManager& mgr, const UserKey& key,
                               Rng& rng) {
  const Gelt m = sp.group.random_element(rng);
  const Ciphertext ct = encrypt(sp, mgr.public_key(), m, rng);
  try {
    UserKey forced = key;
    forced.period = ct.period;  // pretend the stale key is current
    return decrypt(sp, forced, ct) == m;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

ReviveOutcome run_revive_attack(const SystemParams& sp, Rng& rng) {
  ReviveOutcome out;
  out.extra_revocations = sp.v;

  // ---- Baseline: bounded revocation list, oldest entry dropped. ----
  BoundedTraceRevoke baseline(sp, OverflowPolicy::kDropOldest, rng);
  const auto bad_baseline = baseline.add_user(rng);
  std::vector<BoundedTraceRevoke::UserSecret> victims_b;
  for (std::size_t i = 0; i < sp.v; ++i) victims_b.push_back(baseline.add_user(rng));

  require(baseline.revoke(bad_baseline.id), "revive: baseline revoke failed");
  out.baseline_decrypts_when_revoked =
      baseline_adversary_decrypts(sp, baseline, bad_baseline, rng);
  for (const auto& victim : victims_b) baseline.revoke(victim.id);
  // The adversary's entry has been pushed out of the bounded list.
  out.baseline_revived =
      baseline_adversary_decrypts(sp, baseline, bad_baseline, rng);

  // ---- The paper's scheme: same pressure forces a New-period. ----
  SecurityManager mgr(sp, rng);
  const auto bad = mgr.add_user(rng);
  std::vector<std::uint64_t> victims;
  for (std::size_t i = 0; i < sp.v; ++i) victims.push_back(mgr.add_user(rng).id);

  mgr.remove_user(bad.id, rng);
  out.scheme_decrypts_when_revoked =
      scheme_adversary_decrypts(sp, mgr, bad.key, rng);

  UserKey adversary_key = bad.key;
  for (std::uint64_t victim : victims) {
    const auto bundle = mgr.remove_user(victim, rng);
    if (bundle) {
      // The adversary eavesdrops the reset message and tries to follow it.
      try {
        const auto [d, e] =
            open_reset_message(sp, adversary_key, bundle->reset);
        const Zq& zq = sp.group.zq();
        adversary_key.ax = zq.add(adversary_key.ax, d.eval(adversary_key.x));
        adversary_key.bx = zq.add(adversary_key.bx, e.eval(adversary_key.x));
        adversary_key.period = bundle->reset.new_period;
      } catch (const Error&) {
        // Expected: a revoked key cannot open the reset message.
      }
    }
  }
  out.scheme_revived = scheme_adversary_decrypts(sp, mgr, adversary_key, rng);

  // ---- Catch-up abuse: pose as a stale receiver and ask for replay. ----
  // The adversary's key is still at its issue period; the manager's archive
  // obligingly serves every missed signed bundle. None of them opens under
  // a revoked key, so catching up must not revive her either.
  Receiver adversary(sp, adversary_key, mgr.verification_key());
  for (const SignedResetBundle& b :
       mgr.handle_catch_up(adversary.period(), 0, rng).bundles) {
    if (adversary.apply_reset(b) == ResetOutcome::kCannotFollow) {
      ++out.catch_up_bundles_refused;
    }
  }
  out.scheme_revived_via_catch_up =
      scheme_adversary_decrypts(sp, mgr, adversary.key(), rng);
  return out;
}

}  // namespace dfky
