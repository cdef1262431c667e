#include "group/element.h"

#include "obs/metrics.h"

namespace dfky {

namespace {

EcPoint to_point(const Gelt& e) {
  if (e.is_infinity()) return EcPoint::at_infinity();
  return EcPoint::affine(e.px(), e.py());
}

Gelt from_point(const EcPoint& pt) {
  if (pt.infinity) return Gelt::infinity();
  return Gelt::point(pt.x, pt.y);
}

}  // namespace

Group::Group(GroupParams params)
    : params_(std::move(params)),
      order_(params_->q),
      zq_(params_->q, /*trust_prime=*/true) {
  require(params_->p > Bigint(3), "Group: p too small");
  require(params_->p == (params_->q << 1) + Bigint(1), "Group: p != 2q + 1");
}

Group::Group(CurveSpec curve)
    : curve_(std::move(curve)),
      order_(curve_->q),
      zq_(curve_->q, /*trust_prime=*/true) {
  require(ec_on_curve(*curve_, EcPoint::affine(curve_->gx, curve_->gy)),
          "Group: base point not on curve");
}

const GroupParams& Group::params() const {
  require(params_.has_value(), "Group::params: elliptic-curve backend");
  return *params_;
}

const CurveSpec& Group::curve() const {
  require(curve_.has_value(), "Group::curve: Z_p* backend");
  return *curve_;
}

const Bigint& Group::p() const {
  return is_elliptic() ? curve_->p : params_->p;
}

Gelt Group::generator() const {
  if (is_elliptic()) return Gelt::point(curve_->gx, curve_->gy);
  return Gelt(params_->g);
}

Gelt Group::one() const {
  if (is_elliptic()) return Gelt::infinity();
  return Gelt(Bigint(1));
}

Gelt Group::mul(const Gelt& a, const Gelt& b) const {
  if (is_elliptic()) {
    return from_point(ec_add(*curve_, to_point(a), to_point(b)));
  }
  return Gelt((a.value() * b.value()).mod(params_->p));
}

Gelt Group::div(const Gelt& a, const Gelt& b) const {
  return mul(a, inv(b));
}

Gelt Group::inv(const Gelt& a) const {
  if (is_elliptic()) return from_point(ec_neg(*curve_, to_point(a)));
  return Gelt(Bigint::invm(a.value(), params_->p));
}

Gelt Group::pow(const Gelt& a, const Bigint& e) const {
  if (is_elliptic()) {
    static obs::Counter& ec_pows =
        obs::counter("dfky_group_pow_total", {{"backend", "ec"}});
    ec_pows.inc();
    return from_point(ec_mul(*curve_, to_point(a), e.mod(order_)));
  }
  static obs::Counter& zp_pows =
      obs::counter("dfky_group_pow_total", {{"backend", "zp"}});
  zp_pows.inc();
  return Gelt(Bigint::powm(a.value(), e.mod(order_), params_->p));
}

bool Group::is_element(const Gelt& a) const {
  if (is_elliptic()) {
    if (a.is_scalar()) return false;
    // Prime order + cofactor 1: on-curve implies full-order subgroup.
    return ec_on_curve(*curve_, to_point(a));
  }
  if (!a.is_scalar()) return false;
  const Bigint& v = a.value();
  if (v.sign() <= 0 || v >= params_->p) return false;
  if (v.is_one()) return true;
  // QR subgroup of a safe prime == elements with Jacobi symbol +1.
  return v.jacobi(params_->p) == 1;
}

Gelt Group::element_from(Bigint raw) const {
  require(!is_elliptic(),
          "Group::element_from: use point decoding for curves");
  Gelt e(std::move(raw));
  require(is_element(e), "Group::element_from: value not in subgroup");
  return e;
}

Gelt Group::random_element(Rng& rng) const {
  if (is_elliptic()) return pow_g(random_exponent(rng));
  const Bigint h = rng.uniform_nonzero_below(params_->p);
  return Gelt((h * h).mod(params_->p));
}

std::size_t Group::element_size() const {
  const std::size_t field_bytes = (p().bit_length() + 7) / 8;
  // EC: one tag byte (infinity / compressed-point parity) + x coordinate.
  return is_elliptic() ? field_bytes + 1 : field_bytes;
}

bool operator==(const Group& a, const Group& b) {
  if (a.is_elliptic() != b.is_elliptic()) return false;
  if (a.is_elliptic()) return *a.curve_ == *b.curve_;
  return a.params_->p == b.params_->p && a.params_->g == b.params_->g;
}

Gelt multiexp(const Group& group, std::span<const Gelt> bases,
              std::span<const Bigint> exps) {
  require(bases.size() == exps.size(), "multiexp: size mismatch");
  if (bases.empty()) return group.one();
  static obs::Counter& multiexps = obs::counter("dfky_group_multiexp_total");
  multiexps.inc();

  std::vector<Bigint> reduced;
  reduced.reserve(exps.size());
  std::size_t max_bits = 0;
  for (const Bigint& e : exps) {
    reduced.push_back(e.mod(group.order()));
    max_bits = std::max(max_bits, reduced.back().bit_length());
  }
  Gelt acc = group.one();
  for (std::size_t bit = max_bits; bit-- > 0;) {
    acc = group.mul(acc, acc);
    for (std::size_t i = 0; i < bases.size(); ++i) {
      if (reduced[i].bit(bit)) acc = group.mul(acc, bases[i]);
    }
  }
  return acc;
}

}  // namespace dfky
