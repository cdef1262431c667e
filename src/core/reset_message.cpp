#include "core/reset_message.h"

#include "core/scheme.h"
#include "crypto/hkdf.h"
#include "crypto/stream_seal.h"
#include "group/encoding.h"
#include "serial/codec.h"

namespace dfky {

namespace {

constexpr byte kKemInfo[] = {'r', 'e', 's', 'e', 't', '-', 'k', 'e', 'm'};

Bytes kem_session_key(const Group& group, const Gelt& shared) {
  return hkdf(/*salt=*/{}, gelt_canonical_bytes(group, shared),
              BytesView(kKemInfo, sizeof(kKemInfo)), kSealKeySize);
}

/// Serializes the 2v+2 coefficients of (D, E) with fixed count v+1 each.
Bytes pack_coefficients(const Polynomial& d, const Polynomial& e,
                        std::size_t v) {
  Writer w;
  for (std::size_t i = 0; i <= v; ++i) put_bigint(w, d.coeff(i));
  for (std::size_t i = 0; i <= v; ++i) put_bigint(w, e.coeff(i));
  return std::move(w).take();
}

std::pair<Polynomial, Polynomial> unpack_coefficients(const Zq& zq,
                                                      BytesView payload,
                                                      std::size_t v) {
  Reader r(payload);
  std::vector<Bigint> dc, ec;
  dc.reserve(v + 1);
  ec.reserve(v + 1);
  for (std::size_t i = 0; i <= v; ++i) dc.push_back(get_bigint(r));
  for (std::size_t i = 0; i <= v; ++i) ec.push_back(get_bigint(r));
  r.expect_end();
  return {Polynomial(zq, std::move(dc)), Polynomial(zq, std::move(ec))};
}

}  // namespace

void ResetMessage::serialize(Writer& w, const Group& group) const {
  w.put_u64(new_period);
  w.put_u8(static_cast<std::uint8_t>(mode));
  if (mode == ResetMode::kPlain) {
    require(coefficient_cts.size() <= UINT32_MAX, "ResetMessage: too large");
    w.put_u32(static_cast<std::uint32_t>(coefficient_cts.size()));
    for (const Ciphertext& ct : coefficient_cts) ct.serialize(w, group);
  } else {
    require(kem.has_value(), "ResetMessage: hybrid without KEM");
    kem->serialize(w, group);
    w.put_blob(sealed_coefficients);
  }
}

ResetMessage ResetMessage::deserialize(Reader& r, const Group& group) {
  ResetMessage msg;
  msg.new_period = r.get_u64();
  const std::uint8_t mode_raw = r.get_u8();
  if (mode_raw > 1) throw DecodeError("ResetMessage: bad mode");
  msg.mode = static_cast<ResetMode>(mode_raw);
  if (msg.mode == ResetMode::kPlain) {
    const std::uint32_t n = r.get_u32();
    // Every ciphertext is at least a period + three elements + slot count.
    r.check_count(n, 12 + 3 * group.element_size());
    msg.coefficient_cts.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      msg.coefficient_cts.push_back(Ciphertext::deserialize(r, group));
    }
  } else {
    msg.kem = Ciphertext::deserialize(r, group);
    msg.sealed_coefficients = r.get_blob();
  }
  return msg;
}

std::size_t ResetMessage::wire_size(const Group& group) const {
  Writer w;
  serialize(w, group);
  return w.size();
}

Bytes SignedResetBundle::signed_payload(const Group& group) const {
  Writer w;
  static const byte kTag[] = {'c', 'h', 'a', 'n', 'g', 'e', '-',
                              'p', 'e', 'r', 'i', 'o', 'd'};
  w.put_raw(BytesView(kTag, sizeof(kTag)));
  reset.serialize(w, group);
  return std::move(w).take();
}

void SignedResetBundle::serialize(Writer& w, const Group& group) const {
  reset.serialize(w, group);
  signature.serialize(w, group);
}

SignedResetBundle SignedResetBundle::deserialize(Reader& r,
                                                 const Group& group) {
  SignedResetBundle out;
  out.reset = ResetMessage::deserialize(r, group);
  out.signature = SchnorrSignature::deserialize(r, group);
  return out;
}

std::size_t SignedResetBundle::wire_size(const Group& group) const {
  Writer w;
  serialize(w, group);
  return w.size();
}

bool SignedResetBundle::verify(const Group& group,
                               const Gelt& manager_vk) const {
  return schnorr_verify(group, manager_vk, signed_payload(group), signature);
}

Bytes EvictionVerdict::signed_payload() const {
  Writer w;
  static const byte kTag[] = {'e', 'v', 'i', 'c', 't', 'e', 'd'};
  w.put_raw(BytesView(kTag, sizeof(kTag)));
  w.put_u32(shard);
  w.put_u64(oldest_available);
  return std::move(w).take();
}

bool EvictionVerdict::verify(const Group& group,
                             const Gelt& manager_vk) const {
  return schnorr_verify(group, manager_vk, signed_payload(), signature);
}

void EvictionVerdict::serialize(Writer& w, const Group& group) const {
  w.put_u32(shard);
  w.put_u64(oldest_available);
  signature.serialize(w, group);
}

EvictionVerdict EvictionVerdict::deserialize(Reader& r, const Group& group) {
  EvictionVerdict v;
  v.shard = r.get_u32();
  v.oldest_available = r.get_u64();
  v.signature = SchnorrSignature::deserialize(r, group);
  return v;
}

ResetMessage build_reset_message(const Encryptor& enc, const Polynomial& d,
                                 const Polynomial& e, ResetMode mode,
                                 Rng& rng) {
  const SystemParams& sp = enc.params();
  const PublicKey& pk = enc.public_key();
  require(d.degree() <= static_cast<int>(sp.v) &&
              e.degree() <= static_cast<int>(sp.v),
          "build_reset_message: randomizer degree exceeds v");
  ResetMessage msg;
  msg.new_period = pk.period + 1;
  msg.mode = mode;
  if (mode == ResetMode::kPlain) {
    // Plain mode encodes full Z_q coefficients through enc (paper Sect. 4);
    // only the Z_p^* backend has a full-range invertible encoding.
    require(!(encode_capacity(sp.group) < sp.group.order()),
            "build_reset_message: plain mode needs full-range encoding "
            "(use hybrid mode on elliptic-curve groups)");
    msg.coefficient_cts.reserve(2 * sp.v + 2);
    for (std::size_t i = 0; i <= sp.v; ++i) {
      msg.coefficient_cts.push_back(
          enc.encrypt(encode_to_group(sp.group, d.coeff(i)), rng));
    }
    for (std::size_t i = 0; i <= sp.v; ++i) {
      msg.coefficient_cts.push_back(
          enc.encrypt(encode_to_group(sp.group, e.coeff(i)), rng));
    }
  } else {
    const Gelt shared = sp.group.random_element(rng);
    msg.kem = enc.encrypt(shared, rng);
    const Bytes key = kem_session_key(sp.group, shared);
    msg.sealed_coefficients = seal(key, pack_coefficients(d, e, sp.v));
  }
  return msg;
}

std::pair<Polynomial, Polynomial> open_reset_message(const SystemParams& sp,
                                                     const UserKey& sk,
                                                     const ResetMessage& msg) {
  const Zq& zq = sp.group.zq();
  if (msg.mode == ResetMode::kPlain) {
    if (msg.coefficient_cts.size() != 2 * sp.v + 2) {
      throw DecodeError("open_reset_message: wrong ciphertext count");
    }
    std::vector<Bigint> dc, ec;
    dc.reserve(sp.v + 1);
    ec.reserve(sp.v + 1);
    for (std::size_t i = 0; i < 2 * sp.v + 2; ++i) {
      const Gelt m = decrypt(sp, sk, msg.coefficient_cts[i]);
      const Bigint c = decode_from_group(sp.group, m);
      if (i <= sp.v) {
        dc.push_back(c);
      } else {
        ec.push_back(c);
      }
    }
    return {Polynomial(zq, std::move(dc)), Polynomial(zq, std::move(ec))};
  }
  if (!msg.kem.has_value()) {
    throw DecodeError("open_reset_message: hybrid message without KEM");
  }
  const Gelt shared = decrypt(sp, sk, *msg.kem);
  const Bytes key = kem_session_key(sp.group, shared);
  const Bytes payload = open_sealed(key, msg.sealed_coefficients);
  return unpack_coefficients(zq, payload, sp.v);
}

}  // namespace dfky
