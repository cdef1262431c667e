#include "bigint/fixed_pow.h"

#include <algorithm>

namespace dfky {

namespace {

/// An mpz_t sized for `limbs` limbs up front, so products and remainders
/// written into it never reallocate.
class SizedMpz {
 public:
  explicit SizedMpz(std::size_t limbs) {
    mpz_init2(z_, static_cast<mp_bitcnt_t>(limbs * GMP_NUMB_BITS));
  }
  ~SizedMpz() { mpz_clear(z_); }
  SizedMpz(const SizedMpz&) = delete;
  SizedMpz& operator=(const SizedMpz&) = delete;
  mpz_ptr get() { return z_; }

 private:
  mpz_t z_;
};

}  // namespace

FixedPowTable::FixedPowTable(const Bigint& base, const Bigint& mod,
                             std::size_t exp_bits, std::size_t window_bits)
    : mod_(mod), window_bits_(window_bits), width_(mpz_size(mod.raw())) {
  require(window_bits >= 1 && window_bits <= 8,
          "FixedPowTable: window_bits must be in [1, 8]");
  require(mod > Bigint(1), "FixedPowTable: modulus must exceed 1");
  rows_ = (exp_bits + window_bits - 1) / window_bits;
  limbs_.assign(rows_ * per_row() * width_, 0);

  SizedMpz step(width_ + 1), acc(width_ + 1), prod(2 * width_ + 1);
  mpz_mod(step.get(), base.raw(), mod_.raw());  // base^(2^(row * w))
  for (std::size_t row = 0; row < rows_; ++row) {
    mpz_set(acc.get(), step.get());
    for (std::size_t d = 1; d <= per_row(); ++d) {
      std::copy_n(mpz_limbs_read(acc.get()), mpz_size(acc.get()),
                  limbs_.data() + offset(row, d));
      // After the last digit this leaves step^(2^w): the next row's step.
      mpz_mul(prod.get(), acc.get(), step.get());
      mpz_tdiv_r(acc.get(), prod.get(), mod_.raw());
    }
    mpz_swap(step.get(), acc.get());
  }
}

Bigint FixedPowTable::pow(const Bigint& e) const {
  require(e.sign() >= 0 && e.bit_length() <= rows_ * window_bits_,
          "FixedPowTable::pow: exponent out of range");
  const mp_limb_t* el = mpz_limbs_read(e.raw());
  const std::size_t en = mpz_size(e.raw());
  const mp_limb_t mask = (mp_limb_t{1} << window_bits_) - 1;
  // Digit `row` of e: bits [row * w, row * w + w), possibly straddling two
  // limbs.
  const auto digit = [&](std::size_t row) -> std::size_t {
    const std::size_t bit = row * window_bits_;
    const std::size_t limb = bit / GMP_NUMB_BITS;
    const std::size_t shift = bit % GMP_NUMB_BITS;
    if (limb >= en) return 0;
    mp_limb_t v = el[limb] >> shift;
    if (shift + window_bits_ > GMP_NUMB_BITS && limb + 1 < en) {
      v |= el[limb + 1] << (GMP_NUMB_BITS - shift);
    }
    return static_cast<std::size_t>(v & mask);
  };

  Bigint out;
  mpz_realloc2(out.raw(), static_cast<mp_bitcnt_t>((width_ + 1) * GMP_NUMB_BITS));
  SizedMpz prod(2 * width_ + 1);
  bool started = false;
  for (std::size_t row = 0; row < rows_; ++row) {
    const std::size_t d = digit(row);
    if (d == 0) continue;
    mpz_t entry;
    mpz_srcptr ent = mpz_roinit_n(entry, limbs_.data() + offset(row, d),
                                  static_cast<mp_size_t>(width_));
    if (!started) {
      mpz_set(out.raw(), ent);
      started = true;
    } else {
      mpz_mul(prod.get(), out.raw(), ent);
      mpz_tdiv_r(out.raw(), prod.get(), mod_.raw());
    }
  }
  if (!started) mpz_set_ui(out.raw(), 1);  // e == 0 (mod > 1)
  return out;
}

}  // namespace dfky
