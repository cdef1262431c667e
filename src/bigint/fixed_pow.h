// Fixed-base, fixed-modulus exponentiation from radix-2^w digit tables.
//
// For a base b and modulus m that stay fixed across many exponentiations,
// row i of the table holds b^(d * 2^(i*w)) mod m for d = 1 .. 2^w - 1, so
// b^e is the product of one entry per nonzero digit of e: about |e| / w
// modular multiplications and no squarings. Every entry is zero-padded to
// the modulus width and all rows live in one flat limb array; pow() reads
// entries in place through mpz_roinit_n and multiplies into two
// temporaries sized once per call, so no step allocates.
#pragma once

#include <vector>

#include "bigint/bigint.h"

namespace dfky {

class FixedPowTable {
 public:
  /// Tables for `base` mod `mod` covering exponents below 2^exp_bits.
  /// Requires mod > 1 and window_bits in [1, 8].
  FixedPowTable(const Bigint& base, const Bigint& mod, std::size_t exp_bits,
                std::size_t window_bits);

  /// base^e mod m. Throws ContractError unless 0 <= e < 2^exp_bits.
  Bigint pow(const Bigint& e) const;

  /// Precomputed entries: (2^w - 1) per digit position.
  std::size_t entries() const { return rows_ * per_row(); }
  /// Table storage in bytes.
  std::size_t bytes() const { return limbs_.size() * sizeof(mp_limb_t); }

 private:
  std::size_t per_row() const { return (std::size_t{1} << window_bits_) - 1; }
  /// Limbs of row `row`, digit `d` in [1, 2^w).
  std::size_t offset(std::size_t row, std::size_t d) const {
    return (row * per_row() + d - 1) * width_;
  }

  Bigint mod_;
  std::size_t window_bits_;
  std::size_t width_;     // limbs per entry: the modulus width
  std::size_t rows_ = 0;  // digit positions: ceil(exp_bits / w)
  std::vector<mp_limb_t> limbs_;
};

}  // namespace dfky
