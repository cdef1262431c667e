#include "group/fixed_base.h"

#include "obs/metrics.h"

namespace dfky {

FixedBaseTable::FixedBaseTable(const Group& group, const Gelt& base,
                               std::size_t window_bits,
                               const std::function<bool()>& stop)
    : window_bits_(window_bits) {
  require(window_bits >= 1 && window_bits <= 8,
          "FixedBaseTable: window_bits must be in [1, 8]");
  static obs::Histogram& fixedbase_precompute_ns =
      obs::histogram("dfky_fixedbase_precompute_ns");
  obs::ScopedTimer span(fixedbase_precompute_ns);
  const std::size_t exp_bits = group.order().bit_length();
  if (!group.is_elliptic()) {
    zp_.emplace(base.value(), group.p(), exp_bits, window_bits, stop);
    return;
  }
  const std::size_t digits = (exp_bits + window_bits - 1) / window_bits;
  const std::size_t radix = std::size_t{1} << window_bits;
  ec_rows_.reserve(digits);
  Gelt window_base = base;  // base^(2^(i * w)) at digit i
  for (std::size_t i = 0; i < digits; ++i) {
    if (stop && stop()) throw BuildStopped();
    std::vector<Gelt> row;
    row.reserve(radix - 1);
    Gelt acc = window_base;
    for (std::size_t d = 1; d < radix; ++d) {
      row.push_back(acc);
      if (d + 1 < radix) acc = group.mul(acc, window_base);
    }
    ec_rows_.push_back(std::move(row));
    // Advance to the next digit position: square w times.
    window_base = group.mul(acc, window_base);  // == base^(2^w * 2^(i*w))
  }
}

Gelt FixedBaseTable::pow(const Group& group, const Bigint& e) const {
  static obs::Counter& pows = obs::counter("dfky_fixedbase_pow_total");
  pows.inc();
  const Bigint exp = e.mod(group.order());
  if (zp_) return Gelt(zp_->pow(exp));
  Gelt acc = group.one();
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i * window_bits_ < bits; ++i) {
    std::size_t digit = 0;
    for (std::size_t b = 0; b < window_bits_; ++b) {
      if (exp.bit(i * window_bits_ + b)) digit |= std::size_t{1} << b;
    }
    if (digit != 0) acc = group.mul(acc, ec_rows_[i][digit - 1]);
  }
  return acc;
}

std::size_t FixedBaseTable::table_size() const {
  if (zp_) return zp_->entries();
  std::size_t total = 0;
  for (const auto& row : ec_rows_) total += row.size();
  return total;
}

}  // namespace dfky
