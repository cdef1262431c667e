#include "tracing/blackbox.h"

#include <cmath>

#include "obs/metrics.h"
#include "poly/lagrange.h"

namespace dfky {

namespace {

/// Random degree-v polynomial agreeing with `p` on the points `keep_xs`.
Polynomial constrained_random_poly(const Zq& zq, const Polynomial& p,
                                   std::size_t v,
                                   std::span<const Bigint> keep_xs, Rng& rng) {
  std::vector<std::pair<Bigint, Bigint>> points;
  points.reserve(v + 1);
  std::set<std::string> seen;
  for (const Bigint& x : keep_xs) {
    const Bigint xr = zq.reduce(x);
    require(seen.insert(xr.to_hex()).second,
            "fake_public_key: duplicate suspect x");
    points.emplace_back(xr, p.eval(xr));
  }
  while (points.size() < v + 1) {
    Bigint x = rng.uniform_nonzero_below(zq.modulus());
    if (!seen.insert(x.to_hex()).second) continue;
    points.emplace_back(std::move(x), rng.uniform_below(zq.modulus()));
  }
  return interpolate(zq, points);
}

}  // namespace

PublicKey fake_public_key(const SystemParams& sp, const MasterSecret& msk,
                          const PublicKey& pk,
                          std::span<const Bigint> keep_xs, Rng& rng) {
  require(keep_xs.size() <= sp.max_collusion(),
          "fake_public_key: suspect set larger than the collusion bound");
  static obs::Histogram& bbc_fake_pk_ns = obs::histogram("dfky_bbc_fake_pk_ns");
  obs::ScopedTimer span(bbc_fake_pk_ns);
  const Zq& zq = sp.group.zq();
  const Polynomial a_fake =
      constrained_random_poly(zq, msk.a, sp.v, keep_xs, rng);
  const Polynomial b_fake =
      constrained_random_poly(zq, msk.b, sp.v, keep_xs, rng);

  PublicKey out;
  out.g = pk.g;
  out.g2 = pk.g2;
  out.period = pk.period;
  const std::array<Gelt, 2> bases = {sp.g, sp.g2};
  {
    const std::array<Bigint, 2> exps = {a_fake.coeff(0), b_fake.coeff(0)};
    out.y = multiexp(sp.group, bases, exps);
  }
  out.slots.reserve(pk.slots.size());
  for (const PkSlot& s : pk.slots) {
    const std::array<Bigint, 2> exps = {a_fake.eval(s.z), b_fake.eval(s.z)};
    out.slots.push_back(PkSlot{s.z, multiexp(sp.group, bases, exps)});
  }
  return out;
}

double estimate_success(const SystemParams& sp, const PublicKey& pk,
                        PirateDecoder& decoder, std::size_t samples,
                        Rng& rng) {
  require(samples > 0, "estimate_success: need at least one sample");
  static obs::Counter& probes = obs::counter("dfky_bbc_probes_total");
  probes.inc(samples);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const Gelt m = sp.group.random_element(rng);
    const Ciphertext ct = encrypt(sp, pk, m, rng);
    if (decoder.decrypt(ct) == m) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

BbcResult black_box_confirm(const SystemParams& sp, const MasterSecret& msk,
                            const PublicKey& pk,
                            std::span<const UserRecord> suspects,
                            PirateDecoder& decoder, const BbcOptions& options,
                            Rng& rng) {
  require(suspects.size() <= sp.max_collusion(),
          "black_box_confirm: more than m suspects");
  require(options.epsilon > 0.0 && options.epsilon <= 1.0,
          "black_box_confirm: bad epsilon");
  static obs::Histogram& bbc_confirm_ns = obs::histogram("dfky_bbc_confirm_ns");
  obs::ScopedTimer span(bbc_confirm_ns);
  obs::counter("dfky_bbc_confirm_total").inc();
  const std::size_t m = std::max<std::size_t>(sp.max_collusion(), 1);
  const double threshold = options.epsilon / (2.0 * static_cast<double>(m));

  std::size_t samples = options.samples_override;
  if (samples == 0) {
    // Hoeffding: estimate error below threshold/2 except w.p. `confidence`.
    const double t = threshold / 2.0;
    samples = static_cast<std::size_t>(
        std::ceil(std::log(2.0 / options.confidence) / (2.0 * t * t)));
  }

  BbcResult result;
  std::vector<UserRecord> current(suspects.begin(), suspects.end());

  auto estimate_for = [&](std::span<const UserRecord> set) {
    std::vector<Bigint> xs;
    xs.reserve(set.size());
    for (const UserRecord& u : set) xs.push_back(u.x);
    const PublicKey fake = fake_public_key(sp, msk, pk, xs, rng);
    result.queries += samples;
    return estimate_success(sp, fake, decoder, samples, rng);
  };

  double cur = estimate_for(current);
  result.success_curve.push_back(cur);
  while (!current.empty()) {
    const UserRecord candidate = current.back();
    std::vector<UserRecord> next(current.begin(), current.end() - 1);
    const double next_est = estimate_for(next);
    result.success_curve.push_back(next_est);
    if (cur - next_est >= threshold) {
      result.accused = candidate.id;
      obs::event({.name = "bbc_accuse",
                  .user = static_cast<std::int64_t>(candidate.id),
                  .detail = "confirmed",
                  .value = static_cast<std::int64_t>(result.queries)});
      return result;
    }
    current = std::move(next);
    cur = next_est;
  }
  obs::event({.name = "bbc_accuse",
              .detail = "uncovered",
              .value = static_cast<std::int64_t>(result.queries)});
  return result;  // "?": suspects do not cover the coalition
}

}  // namespace dfky
