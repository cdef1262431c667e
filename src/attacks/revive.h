// The "revive" attack (paper Sect. 1.3).
//
// In every prior public-key trace-and-revoke scheme with fixed ciphertext
// size, a revoked adversary who keeps watching the system can regain
// decryption capability once enough further revocations push her out of the
// bounded revocation window. The paper's scheme *expires* such adversaries
// instead: the New-period re-randomization makes their key information
// permanently useless. This module stages the attack against both systems
// and reports who survives.
#pragma once

#include "baselines/bounded_trace_revoke.h"
#include "core/manager.h"

namespace dfky {

struct ReviveOutcome {
  /// Could the revoked adversary decrypt immediately after being revoked?
  bool baseline_decrypts_when_revoked = false;
  bool scheme_decrypts_when_revoked = false;
  /// ...and after v further revocations (baseline window overflow /
  /// scheme period change)?
  bool baseline_revived = false;
  bool scheme_revived = false;
  /// ...and after also catching up (taking the missed signed reset
  /// bundles from the manager's archive)?
  bool scheme_revived_via_catch_up = false;
  /// Diagnostics: number of further revocations staged, and archived
  /// bundles the (still-expired) adversary was served but could not open.
  std::size_t extra_revocations = 0;
  std::size_t catch_up_bundles_refused = 0;
};

/// Stages the attack: subscribe adversary + population, revoke the
/// adversary, then revoke v more users. In the baseline (kDropOldest) the
/// adversary's entry falls out of the revocation list; in the paper's scheme
/// the same pressure triggers a New-period the adversary cannot follow.
/// The adversary attack against the scheme tries its raw (stale) key, the
/// reset message it eavesdropped, AND catch-up: it poses as a
/// stale-but-legitimate receiver and takes the missed bundles from the
/// manager's archive (SecurityManager::handle_catch_up). They are the same
/// ones it already failed to open, so catching up must not revive it.
ReviveOutcome run_revive_attack(const SystemParams& sp, Rng& rng);

}  // namespace dfky
