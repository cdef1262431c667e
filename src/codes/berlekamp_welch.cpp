#include "codes/berlekamp_welch.h"

#include "linalg/gauss.h"
#include "obs/metrics.h"
#include "poly/lagrange.h"

namespace dfky {

namespace {

/// Counts indices where P disagrees with (xs, ys).
std::size_t disagreements(const Polynomial& p, std::span<const Bigint> xs,
                          std::span<const Bigint> ys) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!(p.eval(xs[i]) == ys[i])) ++bad;
  }
  return bad;
}

}  // namespace

std::optional<Polynomial> berlekamp_welch(const Zq& field,
                                          std::span<const Bigint> xs,
                                          std::span<const Bigint> ys,
                                          std::size_t dim,
                                          std::size_t max_errors) {
  require(xs.size() == ys.size(), "berlekamp_welch: size mismatch");
  const std::size_t n = xs.size();
  require(dim >= 1 && dim + 2 * max_errors <= n,
          "berlekamp_welch: dim + 2e must be <= n");
  static obs::Histogram& bw_decode_ns = obs::histogram("dfky_bw_decode_ns");
  obs::ScopedTimer span(bw_decode_ns);
  // Counts the ok/fail verdict of whichever return below fires.
  const auto decoded = [](std::optional<Polynomial> p) {
    obs::counter("dfky_bw_decode_total", {{"result", p ? "ok" : "fail"}}).inc();
    return p;
  };

  for (std::size_t e = max_errors + 1; e-- > 0;) {
    static obs::Counter& rounds = obs::counter("dfky_bw_decode_rounds_total");
    rounds.inc();
    if (e == 0) {
      // Plain interpolation through the first `dim` points, then verify.
      std::vector<std::pair<Bigint, Bigint>> pts;
      pts.reserve(dim);
      for (std::size_t i = 0; i < dim; ++i) pts.emplace_back(xs[i], ys[i]);
      Polynomial p = interpolate(field, pts);
      if (p.degree() < static_cast<int>(dim) &&
          disagreements(p, xs, ys) == 0) {
        return decoded(std::move(p));
      }
      return decoded(std::nullopt);
    }

    // Unknowns: N_0..N_{dim+e-1}, E_0..E_{e-1} (E monic of degree e).
    // Equation per point i:  sum_j N_j x^j - y_i sum_j E_j x^j = y_i x^e.
    const std::size_t n_unknowns = dim + e + e;
    Matrix m(field, n, n_unknowns);
    std::vector<Bigint> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      Bigint pw(1);
      for (std::size_t j = 0; j < dim + e; ++j) {
        m.at(i, j) = pw;
        pw = field.mul(pw, xs[i]);
      }
      pw = Bigint(1);
      for (std::size_t j = 0; j < e; ++j) {
        m.at(i, dim + e + j) = field.neg(field.mul(ys[i], pw));
        pw = field.mul(pw, xs[i]);
      }
      rhs[i] = field.mul(ys[i], pw);  // y_i * x_i^e
    }
    const auto sol = solve(m, rhs);
    if (!sol) continue;  // no solution with exactly this locator degree

    std::vector<Bigint> n_coeffs(sol->begin(), sol->begin() + dim + e);
    std::vector<Bigint> e_coeffs(sol->begin() + dim + e, sol->end());
    e_coeffs.push_back(Bigint(1));  // monic
    const Polynomial num(field, std::move(n_coeffs));
    const Polynomial loc(field, std::move(e_coeffs));
    try {
      Polynomial p = num.divided_exactly_by(loc);
      if (p.degree() < static_cast<int>(dim) &&
          disagreements(p, xs, ys) <= max_errors) {
        return decoded(std::move(p));
      }
    } catch (const MathError&) {
      // Inexact division: fall through to a smaller locator degree.
    }
  }
  return decoded(std::nullopt);
}

}  // namespace dfky
