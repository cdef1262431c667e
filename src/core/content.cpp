#include "core/content.h"

#include "core/scheme.h"
#include "crypto/hkdf.h"
#include "crypto/stream_seal.h"
#include "serial/codec.h"

namespace dfky {

namespace {

constexpr byte kContentInfo[] = {'c', 'o', 'n', 't', 'e', 'n', 't'};

Bytes content_key(const Group& group, const Gelt& shared) {
  return hkdf(/*salt=*/{}, gelt_canonical_bytes(group, shared),
              BytesView(kContentInfo, sizeof(kContentInfo)), kSealKeySize);
}

}  // namespace

void ContentMessage::serialize(Writer& w, const Group& group) const {
  kem.serialize(w, group);
  w.put_blob(sealed_payload);
}

ContentMessage ContentMessage::deserialize(Reader& r, const Group& group) {
  ContentMessage msg;
  msg.kem = Ciphertext::deserialize(r, group);
  msg.sealed_payload = r.get_blob();
  return msg;
}

std::size_t ContentMessage::wire_size(const Group& group) const {
  Writer w;
  serialize(w, group);
  return w.size();
}

ContentMessage seal_content(const Encryptor& enc, BytesView payload,
                            Rng& rng) {
  const Group& group = enc.params().group;
  const Gelt shared = group.random_element(rng);
  ContentMessage msg;
  msg.kem = enc.encrypt(shared, rng);
  msg.sealed_payload = seal(content_key(group, shared), payload);
  return msg;
}

ContentMessage seal_content(const SystemParams& sp, const PublicKey& pk,
                            BytesView payload, Rng& rng) {
  return seal_content(Encryptor(sp, pk), payload, rng);
}

Bytes open_content(const SystemParams& sp, const UserKey& sk,
                   const ContentMessage& msg) {
  const Gelt shared = decrypt(sp, sk, msg.kem);
  return open_sealed(content_key(sp.group, shared), msg.sealed_payload);
}

Bytes open_content_with_representation(const SystemParams& sp,
                                       const Representation& rep,
                                       const ContentMessage& msg) {
  const Gelt shared = decrypt_with_representation(sp, rep, msg.kem);
  return open_sealed(content_key(sp.group, shared), msg.sealed_payload);
}

}  // namespace dfky
