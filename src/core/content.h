// Hybrid content distribution: KEM/DEM wrapper over the scheme.
//
// Content providers (the paper's Pay-TV scenario) do not push raw group
// elements — they encapsulate a fresh session key under the scheme's public
// key and seal the actual payload with one-time authenticated symmetric
// encryption. This is also how the transmission-efficiency experiments
// measure realistic per-broadcast byte counts.
#pragma once

#include "core/ciphertext.h"
#include "core/keys.h"
#include "core/scheme.h"

namespace dfky {

struct ContentMessage {
  Ciphertext kem;        // scheme encryption of a fresh group element
  Bytes sealed_payload;  // ChaCha20+HMAC under the derived session key

  void serialize(Writer& w, const Group& group) const;
  static ContentMessage deserialize(Reader& r, const Group& group);
  std::size_t wire_size(const Group& group) const;
};

/// Encrypts an arbitrary byte payload for the current subscriber population:
/// draws the shared element, then encrypts it under `enc`'s key.
ContentMessage seal_content(const Encryptor& enc, BytesView payload, Rng& rng);
/// The same under a table-less Encryptor for `pk`.
ContentMessage seal_content(const SystemParams& sp, const PublicKey& pk,
                            BytesView payload, Rng& rng);

/// Decrypts with a subscriber key; throws DecodeError (authentication
/// failure) for revoked or stale keys, ContractError on period mismatch.
Bytes open_content(const SystemParams& sp, const UserKey& sk,
                   const ContentMessage& msg);

/// Pirate-decoder path: decrypts with an arbitrary representation.
Bytes open_content_with_representation(const SystemParams& sp,
                                       const Representation& rep,
                                       const ContentMessage& msg);

}  // namespace dfky
