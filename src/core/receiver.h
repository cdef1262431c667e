// A subscriber's receiver: stateless within a period, stateful across
// periods (paper Sect. 2). Holds the user key, decrypts broadcasts, and
// follows signed New-period announcements by updating its key.
//
// The broadcast medium is authenticated but unreliable, so the receiver is
// a small state machine over the periods it has evidence for:
//
//   kCurrent ──(signed reset with a period gap, or a content frame of a
//               later period it cannot open)──▶ kStale ──(catch-up replay
//               closes the gap, or a content frame it opens)──▶ kCurrent
//   kCurrent/kStale ──(signed verdict: the manager's archive has evicted
//               the needed period)──▶ kUnrecoverable (terminal; the
//               subscription must be re-issued out of band)
//
// Future signed bundles arriving out of order are quarantined in a bounded
// pending buffer and replayed automatically once the gap closes.
#pragma once

#include <map>

#include "core/reset_message.h"
#include "core/scheme.h"

namespace dfky {

enum class ReceiverState : std::uint8_t {
  kCurrent = 0,        // key period matches every authenticated observation
  kStale = 1,          // a period gap was detected; catch-up needed
  kUnrecoverable = 2,  // the needed resets are gone from the archive
};

/// What a (non-strict) apply_reset did with a verified bundle.
enum class ResetOutcome : std::uint8_t {
  kApplied = 0,       // key advanced (and pending bundles drained)
  kStaleIgnored = 1,  // duplicate / old period: idempotent no-op
  kGapDetected = 2,   // future period: buffered, receiver is now kStale
  kCannotFollow = 3,  // next period but undecryptable (revoked key)
};

class Receiver {
 public:
  /// `strict` restores the original paper-identity behavior: any bundle
  /// that is not the immediate next period throws DecodeError instead of
  /// engaging the gap/idempotency state machine.
  Receiver(SystemParams sp, UserKey key, Gelt manager_vk, bool strict = false);

  const SystemParams& params() const { return sp_; }
  const UserKey& key() const { return key_; }
  std::uint64_t period() const { return key_.period; }
  ReceiverState state() const { return state_; }
  /// The manager verification key this receiver trusts.
  const Gelt& manager_vk() const { return manager_vk_; }

  /// Decrypts a broadcast ciphertext. Throws ContractError if the ciphertext
  /// belongs to a different period or this receiver is revoked in it.
  Gelt decrypt(const Ciphertext& ct) const;

  /// Processes a signed change-period broadcast: verifies the manager's
  /// signature, recovers the randomizing polynomials with the current key,
  /// and updates SK_i := < x_i, A(x_i)+D(x_i), B(x_i)+E(x_i) >.
  ///
  /// Always throws DecodeError on a bad signature. In strict mode it also
  /// throws on any period other than key.period + 1 (and on an
  /// undecryptable payload). Otherwise it distinguishes the failure modes:
  /// stale periods are idempotently ignored, future periods flip the
  /// receiver to kStale and buffer the bundle, and an undecryptable
  /// next-period payload (a revoked key) reports kCannotFollow.
  ResetOutcome apply_reset(const SignedResetBundle& bundle);

  /// Unauthenticated staleness hint from the latest content frame: one
  /// this key could not open that claims a later period sets the hint to
  /// that period, and one it opened clears the hint. Never advances the
  /// key, and the signed catch-up answer is what actually moves the state.
  /// The hint follows the latest frame only, so one corrupted period field
  /// cannot hold a current receiver at kStale.
  void note_content_frame(std::uint64_t period, bool opened);

  /// First period this receiver is missing (key period + 1).
  std::uint64_t needed_from() const { return key_.period + 1; }
  /// Highest period the receiver has evidence for (signed or hinted).
  std::uint64_t catch_up_target() const;
  /// The terminal transition. Takes it, and returns true, only when
  /// `verdict` verifies under manager_vk() and its oldest_available is past
  /// needed_from(): the manager's archive no longer holds the next period
  /// this key needs. A forged or tampered verdict, one signed by another
  /// shard's key, or one that still covers this receiver changes nothing.
  bool apply_eviction(const EvictionVerdict& verdict);

  /// Verified future bundles awaiting replay.
  std::size_t pending_resets() const { return pending_.size(); }

 private:
  /// Applies a verified bundle for exactly key_.period + 1.
  ResetOutcome apply_next(const SignedResetBundle& bundle);
  void refresh_state();

  SystemParams sp_;
  UserKey key_;
  Gelt manager_vk_;
  bool strict_;
  ReceiverState state_ = ReceiverState::kCurrent;
  std::uint64_t signed_horizon_ = 0;  // highest verified reset period seen
  std::uint64_t hinted_horizon_ = 0;  // the latest content frame's hint
  std::map<std::uint64_t, SignedResetBundle> pending_;

  static constexpr std::size_t kMaxPending = 32;
};

}  // namespace dfky
