#include "poly/polynomial.h"

#include "obs/metrics.h"

namespace dfky {

Polynomial::Polynomial(Zq field, std::vector<Bigint> coeffs)
    : field_(std::move(field)), coeffs_(std::move(coeffs)) {
  for (Bigint& c : coeffs_) c = field_.reduce(c);
  trim();
}

Polynomial Polynomial::zero(const Zq& field) {
  return Polynomial(field, {});
}

Polynomial Polynomial::constant(const Zq& field, const Bigint& c) {
  return Polynomial(field, {c});
}

Polynomial Polynomial::random(const Zq& field, std::size_t degree, Rng& rng) {
  std::vector<Bigint> coeffs;
  coeffs.reserve(degree + 1);
  for (std::size_t i = 0; i <= degree; ++i) {
    coeffs.push_back(rng.uniform_below(field.modulus()));
  }
  return Polynomial(field, std::move(coeffs));
}

void Polynomial::trim() {
  while (!coeffs_.empty() && coeffs_.back().is_zero()) coeffs_.pop_back();
}

const Bigint& Polynomial::coeff(std::size_t i) const {
  static const Bigint kZero(0);
  return i < coeffs_.size() ? coeffs_[i] : kZero;
}

Bigint Polynomial::eval(const Bigint& x) const {
  static obs::Counter& evals = obs::counter("dfky_poly_eval_total");
  evals.inc();
  Bigint acc(0);
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    acc = field_.add(field_.mul(acc, x), coeffs_[i]);
  }
  return acc;
}

std::vector<Bigint> Polynomial::eval_many(std::span<const Bigint> xs) const {
  std::vector<Bigint> out;
  out.reserve(xs.size());
  for (const Bigint& x : xs) out.push_back(eval(x));
  return out;
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
  require(field_ == o.field_, "Polynomial: field mismatch");
  std::vector<Bigint> out(std::max(coeffs_.size(), o.coeffs_.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = field_.add(coeff(i), o.coeff(i));
  }
  return Polynomial(field_, std::move(out));
}

Polynomial Polynomial::operator-(const Polynomial& o) const {
  require(field_ == o.field_, "Polynomial: field mismatch");
  std::vector<Bigint> out(std::max(coeffs_.size(), o.coeffs_.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = field_.sub(coeff(i), o.coeff(i));
  }
  return Polynomial(field_, std::move(out));
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
  require(field_ == o.field_, "Polynomial: field mismatch");
  if (is_zero() || o.is_zero()) return zero(field_);
  std::vector<Bigint> out(coeffs_.size() + o.coeffs_.size() - 1, Bigint(0));
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i].is_zero()) continue;
    for (std::size_t j = 0; j < o.coeffs_.size(); ++j) {
      out[i + j] = field_.add(out[i + j], field_.mul(coeffs_[i], o.coeffs_[j]));
    }
  }
  return Polynomial(field_, std::move(out));
}

Polynomial Polynomial::scaled(const Bigint& c) const {
  std::vector<Bigint> out(coeffs_.size());
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    out[i] = field_.mul(coeffs_[i], c);
  }
  return Polynomial(field_, std::move(out));
}

std::pair<Polynomial, Polynomial> Polynomial::divmod(
    const Polynomial& divisor) const {
  require(field_ == divisor.field_, "Polynomial: field mismatch");
  if (divisor.is_zero()) throw MathError("Polynomial: division by zero");
  if (degree() < divisor.degree()) return {zero(field_), *this};

  std::vector<Bigint> rem = coeffs_;
  const std::size_t dd = static_cast<std::size_t>(divisor.degree());
  const Bigint lead_inv = field_.inv(divisor.coeffs_.back());
  std::vector<Bigint> quot(coeffs_.size() - dd, Bigint(0));
  for (std::size_t i = rem.size(); i-- > dd;) {
    if (rem[i].is_zero()) continue;
    const Bigint f = field_.mul(rem[i], lead_inv);
    quot[i - dd] = f;
    for (std::size_t j = 0; j <= dd; ++j) {
      rem[i - dd + j] =
          field_.sub(rem[i - dd + j], field_.mul(f, divisor.coeffs_[j]));
    }
  }
  return {Polynomial(field_, std::move(quot)), Polynomial(field_, std::move(rem))};
}

Polynomial Polynomial::divided_exactly_by(const Polynomial& divisor) const {
  auto [q, r] = divmod(divisor);
  if (!r.is_zero()) throw MathError("Polynomial: inexact division");
  return q;
}

}  // namespace dfky
