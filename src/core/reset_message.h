// New-period reset message (paper Sect. 4).
//
// Plain mode follows the paper's main construction: 2v + 2 ciphertexts, each
// encrypting one coefficient of the randomizing polynomials D and E through
// the quadratic-residue encoding `enc` — O(v^2) group elements on the wire.
//
// Hybrid mode implements the paper's Remark: a single KEM ciphertext
// encapsulates a fresh session key which seals all 2v + 2 coefficients with
// one-time authenticated symmetric encryption — O(v) on the wire. The MAC
// also gives receivers explicit failure detection (a revoked receiver sees
// an authentication error instead of silently corrupting its key).
//
// The bundle is signed by the security manager (Schnorr), covering both the
// `change period` announcement and the reset payload, as the paper requires.
#pragma once

#include "core/ciphertext.h"
#include "crypto/schnorr.h"

namespace dfky {

enum class ResetMode : std::uint8_t { kPlain = 0, kHybrid = 1 };

struct ResetMessage {
  std::uint64_t new_period = 0;
  ResetMode mode = ResetMode::kPlain;
  /// Plain: 2v + 2 ciphertexts for enc(d_0..d_v), enc(e_0..e_v).
  std::vector<Ciphertext> coefficient_cts;
  /// Hybrid: one ciphertext encapsulating the session key...
  std::optional<Ciphertext> kem;
  /// ...and the sealed, concatenated coefficients.
  Bytes sealed_coefficients;

  void serialize(Writer& w, const Group& group) const;
  static ResetMessage deserialize(Reader& r, const Group& group);
  std::size_t wire_size(const Group& group) const;
};

/// The signed `change period` broadcast: announcement + reset payload +
/// manager signature over both.
struct SignedResetBundle {
  ResetMessage reset;
  SchnorrSignature signature;

  /// The byte string the signature covers.
  Bytes signed_payload(const Group& group) const;

  void serialize(Writer& w, const Group& group) const;
  static SignedResetBundle deserialize(Reader& r, const Group& group);
  std::size_t wire_size(const Group& group) const;

  bool verify(const Group& group, const Gelt& manager_vk) const;
};

/// Signed evidence that a manager's bounded reset archive no longer holds
/// the periods a receiver needs: the earliest new_period it can still
/// serve is `oldest_available`, so a receiver at a period below
/// oldest_available - 1 can never catch up and must re-join out of band.
/// `shard` names the shard whose key signed it (0 for a lone manager);
/// the signature covers both fields. This verdict is what sends a receiver
/// to its terminal state, so it is signed and never inferred. Replay is
/// harmless: the archive only evicts forward, so an authentic verdict
/// stays true.
struct EvictionVerdict {
  std::uint32_t shard = 0;
  std::uint64_t oldest_available = 0;
  SchnorrSignature signature;

  /// The byte string the signature covers.
  Bytes signed_payload() const;
  bool verify(const Group& group, const Gelt& manager_vk) const;

  void serialize(Writer& w, const Group& group) const;
  static EvictionVerdict deserialize(Reader& r, const Group& group);
};

class Encryptor;

/// Builds a reset message for randomizers D, E under the current public key:
/// every KEM ciphertext (one in hybrid mode, 2v + 2 in plain mode) is sealed
/// by `enc`, which must hold that key. Its tables change only the cost.
ResetMessage build_reset_message(const Encryptor& enc, const Polynomial& d,
                                 const Polynomial& e, ResetMode mode, Rng& rng);

/// Recovers the randomizing polynomials (D, E) from a reset message using a
/// non-revoked user key. Throws DecodeError if the receiver cannot follow the
/// period change (hybrid mode detects this via the MAC; plain mode throws
/// only on structural failure).
std::pair<Polynomial, Polynomial> open_reset_message(const SystemParams& sp,
                                                     const UserKey& sk,
                                                     const ResetMessage& msg);

}  // namespace dfky
