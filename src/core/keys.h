// Key material for the scalable public-key trace-and-revoke scheme
// (paper Sect. 4).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "group/element.h"
#include "poly/polynomial.h"
#include "serial/buffer.h"

namespace dfky {

/// Global system parameters fixed at Setup: the group, the two generators
/// g and g', and the saturation limit v (max revocations per period).
/// The maximum traitor collusion the tracer handles is m = floor(v / 2).
struct SystemParams {
  Group group;
  Gelt g;   // first generator
  Gelt g2;  // second generator g'
  std::size_t v = 0;

  std::size_t max_collusion() const { return v / 2; }

  /// Samples fresh generators for the given group.
  static SystemParams create(Group group, std::size_t v, Rng& rng);
};

/// Master secret key: the two random degree-v polynomials (A, B).
struct MasterSecret {
  Polynomial a;
  Polynomial b;
};

/// One public-key slot: an identity z and h = g^{A(z)} g'^{B(z)}.
/// Fresh periods fill slots with the placeholder identities 1..v;
/// Remove-user overwrites a placeholder with the revoked user's x.
struct PkSlot {
  Bigint z;
  Gelt h;

  friend bool operator==(const PkSlot&, const PkSlot&) = default;
};

/// Public key: PK = < g, g', y, (z_1, h_1), ..., (z_v, h_v) > plus the
/// period number (receivers are stateful across periods, stateless within).
struct PublicKey {
  Gelt g;
  Gelt g2;
  Gelt y;  // g^{A(0)} g'^{B(0)}
  std::vector<PkSlot> slots;
  std::uint64_t period = 0;

  friend bool operator==(const PublicKey&, const PublicKey&) = default;

  std::vector<Bigint> slot_ids() const;
  bool has_slot_id(const Bigint& z) const;

  void serialize(Writer& w, const Group& group) const;
  static PublicKey deserialize(Reader& r, const Group& group);
};

/// Per-user secret key SK_i = < x_i, A(x_i), B(x_i) >, tagged with the
/// period whose master polynomials it matches.
struct UserKey {
  Bigint x;
  Bigint ax;  // A(x)
  Bigint bx;  // B(x)
  std::uint64_t period = 0;

  void serialize(Writer& w) const;
  static UserKey deserialize(Reader& r);
};

/// A discrete-log representation of y with respect to (g, g', h_1, ..., h_v):
///     y = g^{gamma_a} g'^{gamma_b} prod_l h_l^{tail_l}.
/// This is the "compact" secret-key form delta_i of Sect. 6.3.1, and the
/// object Assumption 3 says can be extracted from a working pirate decoder.
struct Representation {
  Bigint gamma_a;
  Bigint gamma_b;
  std::vector<Bigint> tail;

  /// Checks validity against a public key (a purely public computation).
  bool valid_for(const SystemParams& sp, const PublicKey& pk) const;
};

}  // namespace dfky
