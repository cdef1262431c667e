// Fixed-base exponentiation with precomputed windowed tables.
//
// A content provider encrypts many broadcasts under the same public key, so
// the bases (g, g', y, h_1..h_v) are fixed between Remove-user operations.
// Precomputing radix-2^w digit tables turns each exponentiation into
// ~ceil(|q| / w) multiplications with no squarings. The Z_p backend keeps
// its rows in the flat-limb FixedPowTable (bigint/fixed_pow.h); the EC
// backend keeps rows of points. The scheme's Encryptor (core/scheme.h)
// holds one table per base.
#pragma once

#include <functional>
#include <optional>

#include "bigint/fixed_pow.h"
#include "group/element.h"

namespace dfky {

/// The one window width for every table the system builds. At 512 bits a
/// w = 6 table holds 86 x 63 entries (347 KB) and turns a pow into at most
/// 85 multiplications. w = 7 measured 0-13% faster per pow for 1.7x the
/// memory and 1.6x the build time (bench_group, E8).
inline constexpr std::size_t kFixedBaseWindow = 6;

class FixedBaseTable {
 public:
  /// Precomputes tables for `base` covering exponents below the group
  /// order. `window_bits` in [1, 8]. `stop`, when given, is asked before
  /// each digit row; once it answers true the constructor throws
  /// BuildStopped.
  FixedBaseTable(const Group& group, const Gelt& base,
                 std::size_t window_bits = kFixedBaseWindow,
                 const std::function<bool()>& stop = {});

  /// base^e (e reduced mod q).
  Gelt pow(const Group& group, const Bigint& e) const;

  std::size_t window_bits() const { return window_bits_; }
  /// Total precomputed elements.
  std::size_t table_size() const;
  /// Table storage in bytes on the Z_p backend (0 on EC).
  std::size_t bytes() const { return zp_ ? zp_->bytes() : 0; }

 private:
  std::size_t window_bits_;
  std::optional<FixedPowTable> zp_;  // Z_p backend
  // EC backend: ec_rows_[i][d - 1] = base^(d << (i * window_bits)).
  std::vector<std::vector<Gelt>> ec_rows_;
};

}  // namespace dfky
