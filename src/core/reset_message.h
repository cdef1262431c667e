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

/// Catch-up request from a receiver that detected a period gap (its key is
/// at `have_period` but it saw authenticated evidence of `want_period`).
/// Unauthenticated — the manager's answer is what carries signatures.
struct CatchUpRequest {
  std::uint64_t nonce = 0;  // echoed in the response for correlation
  std::uint64_t have_period = 0;
  std::uint64_t want_period = 0;

  void serialize(Writer& w) const;
  static CatchUpRequest deserialize(Reader& r);
};

/// Catch-up response: the consecutive run of archived signed reset bundles
/// covering periods have_period+1 .. want_period, or an empty list when the
/// bounded archive has already evicted period have_period+1 (the receiver
/// is then unrecoverable). `oldest_available` is the earliest new_period
/// the archive can still serve. The whole response is signed by the
/// manager: the bundles are already individually signed, but the eviction
/// verdict (`oldest_available` with no bundles) is what sends a receiver
/// to its terminal state, so it must not be forgeable. Replay is harmless:
/// the archive only evicts forward, so any authentic eviction verdict
/// stays true.
struct CatchUpResponse {
  std::uint64_t nonce = 0;
  std::uint64_t oldest_available = 0;
  std::vector<SignedResetBundle> bundles;
  SchnorrSignature signature;

  /// The byte string the signature covers.
  Bytes signed_payload(const Group& group) const;
  bool verify(const Group& group, const Gelt& manager_vk) const;

  void serialize(Writer& w, const Group& group) const;
  static CatchUpResponse deserialize(Reader& r, const Group& group);
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
