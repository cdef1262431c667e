// The security manager: the stateful orchestrator of the scheme's lifecycle
// (paper Sect. 2): Setup, Add-user, Remove-user with saturation bookkeeping,
// and New-period (reactive on saturation overflow, or proactive on demand).
#pragma once

#include <deque>
#include <optional>
#include <set>

#include "core/reset_message.h"
#include "core/scheme.h"

namespace dfky {

struct UserRecord {
  std::uint64_t id = 0;
  Bigint x;
  bool revoked = false;
  std::uint64_t revoked_in_period = 0;  // meaningful iff revoked
};

/// One incremental, replayable record of a state-v2 mutation — the unit the
/// durable state store appends to its write-ahead log (DESIGN.md Sect. 9).
/// Records carry the *results* of every randomized choice (the issued x,
/// the randomizer coefficients, the signed bundle), so replaying them is
/// deterministic and reproduces the original state byte-for-byte.
struct ManagerMutation {
  enum class Kind : std::uint8_t {
    kAddUser = 1,
    kRemoveUser = 2,
    kNewPeriod = 3,
  };

  Kind kind = Kind::kAddUser;
  Bigint x{};                 // kAddUser: the issued identity value
  std::uint64_t user_id = 0;  // kRemoveUser
  /// kNewPeriod: the randomizing polynomials D, E as fixed-width
  /// coefficient vectors (v + 1 each, untrimmed)...
  std::vector<Bigint> d{}, e{};
  /// ...and the broadcast bundle itself — the Schnorr signature is
  /// randomized, so replay must reuse the recorded one.
  SignedResetBundle bundle{};

  void serialize(Writer& w, const Group& group) const;
  /// Throws DecodeError on malformed input.
  static ManagerMutation deserialize(Reader& r, const Group& group);
};

class SecurityManager {
 public:
  /// Runs Setup and generates the manager's Schnorr signing key.
  SecurityManager(SystemParams sp, Rng& rng,
                  ResetMode default_mode = ResetMode::kHybrid);

  const SystemParams& params() const { return sp_; }
  const PublicKey& public_key() const { return pk_; }
  /// Verification key for the manager's signed broadcasts.
  const Gelt& verification_key() const { return sign_key_.public_key(); }
  std::uint64_t period() const { return pk_.period; }
  /// Users revoked so far in the current period (the saturation level L).
  std::size_t saturation_level() const { return level_; }
  std::size_t saturation_limit() const { return sp_.v; }

  struct AddedUser {
    std::uint64_t id;
    UserKey key;
  };

  /// Add-user with a manager-chosen random identity value x.
  AddedUser add_user(Rng& rng);
  /// Join-query variant (Sect. 5.1): the caller chooses x. Throws
  /// ContractError if x lies in the placeholder range {1..v}, is zero, or is
  /// already taken.
  AddedUser add_user_with_value(const Bigint& x);

  /// Remove-user. If the saturation limit is already reached, a New-period
  /// operation is executed first and its signed bundle is returned; the
  /// public key is edited either way. Throws ContractError for unknown or
  /// already-revoked users.
  std::optional<SignedResetBundle> remove_user(std::uint64_t id, Rng& rng);
  std::optional<SignedResetBundle> remove_user(std::uint64_t id, Rng& rng,
                                               ResetMode mode);

  /// Batch Remove-user, the paper's native form (Sect. 4: identities
  /// i_1..i_k with L + k <= v per period). Handles any batch size by
  /// rolling periods as needed; returns every reset bundle emitted, in
  /// broadcast order. Validates all ids upfront (all-or-nothing).
  std::vector<SignedResetBundle> remove_users(
      std::span<const std::uint64_t> ids, Rng& rng);
  std::vector<SignedResetBundle> remove_users(
      std::span<const std::uint64_t> ids, Rng& rng, ResetMode mode);

  /// Proactive period change.
  SignedResetBundle new_period(Rng& rng);
  SignedResetBundle new_period(Rng& rng, ResetMode mode);

  // -- catch-up recovery -------------------------------------------------------
  /// The manager archives the last K signed reset bundles (a ring buffer,
  /// persisted by save_state) so receivers that missed New-period
  /// broadcasts can be replayed the gap. A receiver whose needed period
  /// has been evicted is unrecoverable and must re-join out of band.
  static constexpr std::size_t kDefaultArchiveCapacity = 16;
  std::size_t reset_archive_capacity() const { return archive_capacity_; }
  /// Shrinking evicts oldest bundles immediately. Capacity must be >= 1.
  void set_reset_archive_capacity(std::size_t k);
  const std::deque<SignedResetBundle>& reset_archive() const {
    return archive_;
  }
  /// Oldest period a catch-up can still start from; current period + 1
  /// when the archive is empty (nothing to serve, nothing missing).
  std::uint64_t archive_oldest_period() const;

  /// Answers a stale receiver: the consecutive bundles for periods
  /// have_period+1 .. min(want_period, current). Returns an empty bundle
  /// list when the range's start has been evicted — the signed bundles in
  /// any non-empty answer always begin exactly at have_period + 1. The
  /// response is signed (the eviction verdict must not be forgeable).
  CatchUpResponse handle_catch_up(const CatchUpRequest& req, Rng& rng) const;

  // -- views used by tracing and the attack games -----------------------------
  const std::vector<UserRecord>& users() const { return users_; }
  const UserRecord& user(std::uint64_t id) const;
  bool is_revoked(std::uint64_t id) const { return user(id).revoked; }
  /// Users never revoked / revoked so far, kept as counts (O(1), no scan).
  std::size_t active_users() const { return users_.size() - revoked_users_; }
  std::size_t revoked_users() const { return revoked_users_; }
  /// Master secret (tracing algorithms are run by the manager).
  const MasterSecret& master_secret() const { return msk_; }

  // -- persistence -------------------------------------------------------------
  /// Serializes the COMPLETE manager state — including the master secret
  /// polynomials and the signing key — for the manager's own durable
  /// storage. Never broadcast this.
  Bytes save_state() const;
  /// Restores a manager from save_state output. Throws DecodeError on
  /// malformed or inconsistent state.
  static SecurityManager restore_state(BytesView state);

  // -- incremental mutation records (the durable store's WAL payload) ----------
  /// While recording is on, every mutating operation appends the replayable
  /// record(s) it performed: add_user one kAddUser, remove_user a kRemoveUser
  /// (preceded by a kNewPeriod when it rolled the period), new_period one
  /// kNewPeriod. Disabling recording clears any undrained records.
  void set_mutation_recording(bool on);
  bool mutation_recording() const { return record_mutations_; }
  /// Drains the records appended since the last call, in execution order.
  std::vector<ManagerMutation> take_mutation_log();
  /// Replays one record produced by a recording manager: applies exactly
  /// the original state change (no fresh randomness, no lifecycle metrics).
  /// Throws DecodeError if the record is inconsistent with the current
  /// state — the WAL it came from is corrupt or misordered.
  void apply_mutation(const ManagerMutation& m);

 private:
  struct RestoreTag {};
  SecurityManager(RestoreTag, SystemParams sp, MasterSecret msk, PublicKey pk,
                  SchnorrKeyPair sign_key, ResetMode mode, std::size_t level,
                  std::vector<UserRecord> users, std::size_t archive_capacity,
                  std::deque<SignedResetBundle> archive);

  Bigint fresh_x(Rng& rng);
  /// The shared state edit of New-period: msk += (D, E), fresh public key,
  /// saturation reset, archive push. Used by the live path and by replay.
  void apply_new_period(const Polynomial& d, const Polynomial& e,
                        const SignedResetBundle& bundle);
  void record(ManagerMutation m);

  SystemParams sp_;
  MasterSecret msk_;
  PublicKey pk_;
  SchnorrKeyPair sign_key_;
  ResetMode default_mode_;
  std::size_t level_ = 0;
  std::vector<UserRecord> users_;
  std::size_t revoked_users_ = 0;  // users_ entries with revoked set
  std::set<Bigint> used_x_;
  std::size_t archive_capacity_ = kDefaultArchiveCapacity;
  std::deque<SignedResetBundle> archive_;  // ascending new_period
  bool record_mutations_ = false;
  std::vector<ManagerMutation> mutation_log_;
};

}  // namespace dfky
