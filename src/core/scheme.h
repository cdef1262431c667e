// Stateless algorithms of the scheme (paper Sect. 4): Setup, key issuance,
// Encryption, Decryption, and the public-key edit performed by Remove-user.
// The stateful orchestration (saturation bookkeeping, period changes, user
// registry) lives in SecurityManager / Receiver.
#pragma once

#include <functional>
#include <memory>

#include "core/ciphertext.h"
#include "core/keys.h"
#include "group/fixed_base.h"

namespace dfky {

struct SetupResult {
  MasterSecret msk;
  PublicKey pk;
};

/// Setup(1^k, 1^v): samples the master polynomials A, B of degree v and
/// publishes PK with placeholder slot identities 1..v.
SetupResult setup(const SystemParams& sp, Rng& rng);

/// Rebuilds the public key for the current master secret with placeholder
/// slots (used by Setup and by New-period).
PublicKey make_fresh_public_key(const SystemParams& sp,
                                const MasterSecret& msk,
                                std::uint64_t period);

/// Add-user: SK_i = < x, A(x), B(x) >. The caller (the manager) is
/// responsible for choosing x outside {1..v} and the set of issued values.
UserKey issue_user_key(const SystemParams& sp, const MasterSecret& msk,
                       const Bigint& x, std::uint64_t period);

/// Remove-user public-key edit: overwrites slot `slot_index` with
/// ( x, g^{A(x)} g'^{B(x)} ).
void revoke_into_slot(const SystemParams& sp, const MasterSecret& msk,
                      PublicKey& pk, std::size_t slot_index, const Bigint& x);

/// Encryption bound to one public key, with an optional fixed-base table
/// for each of its v + 3 bases (g, g', y, h_1..h_v); a base without one
/// goes through Group::pow. Every ciphertext, `encrypt` included, is
/// assembled here. Tables are shared, immutable, between Encryptors, so
/// the Encryptor for a revoked or rolled key keeps every table whose base
/// did not change.
class Encryptor {
 public:
  using Table = std::shared_ptr<const FixedBaseTable>;

  /// No tables: every exponentiation is a Group::pow.
  Encryptor(SystemParams sp, PublicKey pk);
  /// For `pk`, sharing each of `prev`'s tables whose base is unchanged
  /// (g and g' always; y and the untouched slots across a revoke). Builds
  /// nothing.
  Encryptor(const Encryptor& prev, PublicKey pk);

  /// A copy with a table on every base, building the missing ones at
  /// kFixedBaseWindow. `stop` is asked before each row of a build; once it
  /// answers true the table in hand is dropped and the copy comes back
  /// with only the tables finished so far.
  Encryptor with_tables(const std::function<bool()>& stop = {}) const;

  const SystemParams& params() const { return sp_; }
  const PublicKey& public_key() const { return pk_; }
  /// Bases that have a table.
  std::size_t tables() const;
  /// True when every base has a table.
  bool complete() const { return tables() == tables_.size(); }

  /// Encryption of a group element M: draws r from `rng`, then
  /// u = g^r, u' = g'^r, w = y^r M and h_l^r per slot.
  Ciphertext encrypt(const Gelt& m, Rng& rng) const;

 private:
  /// Base i in the order g, g', y, h_1..h_v.
  const Gelt& base(std::size_t i) const;

  SystemParams sp_;
  PublicKey pk_;
  std::vector<Table> tables_;  // parallel to base(i); null = Group::pow
};

/// Encryption of a group element M under PK: a table-less Encryptor.
Ciphertext encrypt(const SystemParams& sp, const PublicKey& pk, const Gelt& m,
                   Rng& rng);

/// Decryption with a user key. Throws ContractError if the key's period does
/// not match the ciphertext, or if the user's x appears among the ciphertext
/// slots (a revoked user: no leap-vector exists, paper Sect. 3.2).
Gelt decrypt(const SystemParams& sp, const UserKey& sk, const Ciphertext& ct);

/// Decryption with an arbitrary representation (used by pirate decoders; any
/// valid representation of the encrypting key decrypts correctly).
Gelt decrypt_with_representation(const SystemParams& sp,
                                 const Representation& rep,
                                 const Ciphertext& ct);

/// The user's compact representation delta_i w.r.t. `pk` (Sect. 6.3.1):
///     < lambda_0 A(x), lambda_0 B(x), lambda_1, ..., lambda_v >.
/// Throws ContractError if the user is revoked in `pk`.
Representation representation_of(const SystemParams& sp, const UserKey& sk,
                                 const PublicKey& pk);

/// Convex combination sum_j mu_j * delta_j with sum mu_j = 1 — the only kind
/// of new representation a coalition can forge (Lemma 6). Used to model
/// pirate key construction.
Representation convex_combination(const SystemParams& sp,
                                  std::span<const Representation> deltas,
                                  std::span<const Bigint> mus);

}  // namespace dfky
