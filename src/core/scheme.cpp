#include "core/scheme.h"

#include <algorithm>

#include "obs/metrics.h"
#include "poly/leap_vector.h"

namespace dfky {

namespace {

/// h = g^{A(z)} g'^{B(z)} for a slot identity z.
Gelt slot_value(const SystemParams& sp, const MasterSecret& msk,
                const Bigint& z) {
  const std::array<Gelt, 2> bases = {sp.g, sp.g2};
  const std::array<Bigint, 2> exps = {msk.a.eval(z), msk.b.eval(z)};
  return multiexp(sp.group, bases, exps);
}

}  // namespace

PublicKey make_fresh_public_key(const SystemParams& sp,
                                const MasterSecret& msk,
                                std::uint64_t period) {
  PublicKey pk;
  pk.g = sp.g;
  pk.g2 = sp.g2;
  pk.period = period;
  const std::array<Gelt, 2> bases = {sp.g, sp.g2};
  const std::array<Bigint, 2> exps0 = {msk.a.coeff(0), msk.b.coeff(0)};
  pk.y = multiexp(sp.group, bases, exps0);
  pk.slots.reserve(sp.v);
  for (std::size_t l = 1; l <= sp.v; ++l) {
    const Bigint z(static_cast<long>(l));
    pk.slots.push_back(PkSlot{z, slot_value(sp, msk, z)});
  }
  return pk;
}

SetupResult setup(const SystemParams& sp, Rng& rng) {
  const Zq& zq = sp.group.zq();
  SetupResult out{
      MasterSecret{Polynomial::random(zq, sp.v, rng),
                   Polynomial::random(zq, sp.v, rng)},
      PublicKey{}};
  out.pk = make_fresh_public_key(sp, out.msk, /*period=*/0);
  return out;
}

UserKey issue_user_key(const SystemParams& sp, const MasterSecret& msk,
                       const Bigint& x, std::uint64_t period) {
  const Bigint xr = sp.group.zq().reduce(x);
  require(!xr.is_zero(), "issue_user_key: x must be nonzero");
  return UserKey{xr, msk.a.eval(xr), msk.b.eval(xr), period};
}

void revoke_into_slot(const SystemParams& sp, const MasterSecret& msk,
                      PublicKey& pk, std::size_t slot_index, const Bigint& x) {
  require(slot_index < pk.slots.size(), "revoke_into_slot: bad slot index");
  require(!pk.has_slot_id(x), "revoke_into_slot: identity already revoked");
  pk.slots[slot_index] = PkSlot{x, slot_value(sp, msk, x)};
}

Encryptor::Encryptor(SystemParams sp, PublicKey pk)
    : sp_(std::move(sp)), pk_(std::move(pk)), tables_(pk_.slots.size() + 3) {}

Encryptor::Encryptor(const Encryptor& prev, PublicKey pk)
    : Encryptor(prev.sp_, std::move(pk)) {
  for (std::size_t i = 0; i < tables_.size() && i < prev.tables_.size(); ++i) {
    if (prev.tables_[i] && prev.base(i) == base(i)) tables_[i] = prev.tables_[i];
  }
}

Encryptor Encryptor::with_tables() const {
  Encryptor out = *this;
  for (std::size_t i = 0; i < out.tables_.size(); ++i) {
    if (!out.tables_[i]) {
      out.tables_[i] = std::make_shared<const FixedBaseTable>(sp_.group, base(i));
    }
  }
  return out;
}

std::size_t Encryptor::tables() const {
  return static_cast<std::size_t>(
      std::count_if(tables_.begin(), tables_.end(),
                    [](const Table& t) { return t != nullptr; }));
}

const Gelt& Encryptor::base(std::size_t i) const {
  switch (i) {
    case 0: return pk_.g;
    case 1: return pk_.g2;
    case 2: return pk_.y;
    default: return pk_.slots[i - 3].h;
  }
}

Ciphertext Encryptor::encrypt(const Gelt& m, Rng& rng) const {
  const Group& group = sp_.group;
  require(group.is_element(m), "encrypt: message not a group element");
  DFKY_OBS_TIMER(obs_span, "dfky_encrypt_ns");
  DFKY_OBS(static obs::Counter& c = obs::counter("dfky_encrypt_total");
           c.inc(););
  const Bigint r = group.random_exponent(rng);
  const auto pow = [&](std::size_t i) {
    return tables_[i] ? tables_[i]->pow(group, r) : group.pow(base(i), r);
  };
  Ciphertext ct;
  ct.period = pk_.period;
  ct.u = pow(0);
  ct.u2 = pow(1);
  ct.w = group.mul(pow(2), m);
  ct.slots.reserve(pk_.slots.size());
  for (std::size_t l = 0; l < pk_.slots.size(); ++l) {
    ct.slots.push_back(CtSlot{pk_.slots[l].z, pow(3 + l)});
  }
  return ct;
}

Ciphertext encrypt(const SystemParams& sp, const PublicKey& pk, const Gelt& m,
                   Rng& rng) {
  return Encryptor(sp, pk).encrypt(m, rng);
}

Gelt decrypt(const SystemParams& sp, const UserKey& sk, const Ciphertext& ct) {
  require(sk.period == ct.period,
          "decrypt: key period does not match ciphertext period");
  DFKY_OBS_TIMER(obs_span, "dfky_decrypt_ns", {{"path", "user"}});
  DFKY_OBS(static obs::Counter& c =
               obs::counter("dfky_decrypt_total", {{"path", "user"}});
           c.inc(););
  const Zq& zq = sp.group.zq();
  const std::vector<Bigint> zs = ct.slot_ids();
  // Throws ContractError on a revoked user (x collides with a slot id).
  const LeapCoefficients lc = leap_coefficients(zq, sk.x, zs);
  const LeapVector nu_a = leap_vector_from(zq, lc, sk.ax);
  const LeapVector nu_b = leap_vector_from(zq, lc, sk.bx);

  // Denominator: u^{(nu_A)_0} * u'^{(nu_B)_0} * prod_l u_l^{lambda_l}.
  std::vector<Gelt> bases;
  std::vector<Bigint> exps;
  bases.reserve(ct.slots.size() + 2);
  exps.reserve(ct.slots.size() + 2);
  bases.push_back(ct.u);
  exps.push_back(nu_a.alpha0);
  bases.push_back(ct.u2);
  exps.push_back(nu_b.alpha0);
  for (std::size_t l = 0; l < ct.slots.size(); ++l) {
    bases.push_back(ct.slots[l].hr);
    exps.push_back(lc.lambdas[l]);
  }
  const Gelt denom = multiexp(sp.group, bases, exps);
  return sp.group.div(ct.w, denom);
}

Gelt decrypt_with_representation(const SystemParams& sp,
                                 const Representation& rep,
                                 const Ciphertext& ct) {
  require(rep.tail.size() == ct.slots.size(),
          "decrypt_with_representation: slot count mismatch");
  DFKY_OBS_TIMER(obs_span, "dfky_decrypt_ns", {{"path", "representation"}});
  DFKY_OBS(static obs::Counter& c = obs::counter(
               "dfky_decrypt_total", {{"path", "representation"}});
           c.inc(););
  std::vector<Gelt> bases;
  std::vector<Bigint> exps;
  bases.reserve(ct.slots.size() + 2);
  exps.reserve(ct.slots.size() + 2);
  bases.push_back(ct.u);
  exps.push_back(rep.gamma_a);
  bases.push_back(ct.u2);
  exps.push_back(rep.gamma_b);
  for (std::size_t l = 0; l < ct.slots.size(); ++l) {
    bases.push_back(ct.slots[l].hr);
    exps.push_back(rep.tail[l]);
  }
  const Gelt denom = multiexp(sp.group, bases, exps);
  return sp.group.div(ct.w, denom);
}

Representation representation_of(const SystemParams& sp, const UserKey& sk,
                                 const PublicKey& pk) {
  require(sk.period == pk.period,
          "representation_of: key/public-key period mismatch");
  const Zq& zq = sp.group.zq();
  const std::vector<Bigint> zs = pk.slot_ids();
  const LeapCoefficients lc = leap_coefficients(zq, sk.x, zs);
  Representation rep;
  rep.gamma_a = zq.mul(lc.lambda0, sk.ax);
  rep.gamma_b = zq.mul(lc.lambda0, sk.bx);
  rep.tail = lc.lambdas;
  return rep;
}

Representation convex_combination(const SystemParams& sp,
                                  std::span<const Representation> deltas,
                                  std::span<const Bigint> mus) {
  require(!deltas.empty(), "convex_combination: empty input");
  require(deltas.size() == mus.size(), "convex_combination: size mismatch");
  const Zq& zq = sp.group.zq();
  Bigint mu_sum(0);
  for (const Bigint& mu : mus) mu_sum = zq.add(mu_sum, mu);
  require(mu_sum.is_one(), "convex_combination: weights must sum to 1");

  const std::size_t v = deltas[0].tail.size();
  Representation out;
  out.gamma_a = Bigint(0);
  out.gamma_b = Bigint(0);
  out.tail.assign(v, Bigint(0));
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    require(deltas[j].tail.size() == v, "convex_combination: ragged input");
    out.gamma_a = zq.add(out.gamma_a, zq.mul(mus[j], deltas[j].gamma_a));
    out.gamma_b = zq.add(out.gamma_b, zq.mul(mus[j], deltas[j].gamma_b));
    for (std::size_t l = 0; l < v; ++l) {
      out.tail[l] = zq.add(out.tail[l], zq.mul(mus[j], deltas[j].tail[l]));
    }
  }
  return out;
}

}  // namespace dfky
