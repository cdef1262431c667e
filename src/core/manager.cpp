#include "core/manager.h"

#include "obs/metrics.h"
#include "serial/codec.h"

namespace dfky {

namespace {

constexpr std::uint32_t kStateMagic = 0x64666b79;  // "dfky"
// v2 appends the signed-reset archive (catch-up recovery) to v1.
constexpr std::uint8_t kStateVersion = 2;

void put_poly_fixed(Writer& w, const Polynomial& p, std::size_t v) {
  for (std::size_t i = 0; i <= v; ++i) put_bigint(w, p.coeff(i));
}

Polynomial get_poly_fixed(Reader& r, const Zq& zq, std::size_t v) {
  std::vector<Bigint> c;
  c.reserve(v + 1);
  for (std::size_t i = 0; i <= v; ++i) c.push_back(get_bigint(r));
  return Polynomial(zq, std::move(c));
}

}  // namespace

// ---- ManagerMutation ----------------------------------------------------------

void ManagerMutation::serialize(Writer& w, const Group& group) const {
  w.put_u8(static_cast<std::uint8_t>(kind));
  switch (kind) {
    case Kind::kAddUser:
      put_bigint(w, x);
      break;
    case Kind::kRemoveUser:
      w.put_u64(user_id);
      break;
    case Kind::kNewPeriod:
      put_bigint_vec(w, d);
      put_bigint_vec(w, e);
      bundle.serialize(w, group);
      break;
  }
}

ManagerMutation ManagerMutation::deserialize(Reader& r, const Group& group) {
  ManagerMutation m;
  const std::uint8_t kind_raw = r.get_u8();
  switch (kind_raw) {
    case static_cast<std::uint8_t>(Kind::kAddUser):
      m.kind = Kind::kAddUser;
      m.x = get_bigint(r);
      break;
    case static_cast<std::uint8_t>(Kind::kRemoveUser):
      m.kind = Kind::kRemoveUser;
      m.user_id = r.get_u64();
      break;
    case static_cast<std::uint8_t>(Kind::kNewPeriod):
      m.kind = Kind::kNewPeriod;
      m.d = get_bigint_vec(r);
      m.e = get_bigint_vec(r);
      m.bundle = SignedResetBundle::deserialize(r, group);
      break;
    default:
      throw DecodeError("ManagerMutation: unknown kind");
  }
  return m;
}

// ---- SecurityManager ----------------------------------------------------------

SecurityManager::SecurityManager(SystemParams sp, Rng& rng,
                                 ResetMode default_mode)
    : sp_(std::move(sp)),
      msk_(Polynomial::zero(sp_.group.zq()), Polynomial::zero(sp_.group.zq())),
      sign_key_(SchnorrKeyPair::generate(sp_.group, rng)),
      default_mode_(default_mode) {
  SetupResult s = setup(sp_, rng);
  msk_ = std::move(s.msk);
  pk_ = std::move(s.pk);
}

Bigint SecurityManager::fresh_x(Rng& rng) {
  const Bigint v_bound(static_cast<long>(sp_.v));
  while (true) {
    Bigint x = rng.uniform_nonzero_below(sp_.group.order());
    if (x <= v_bound) continue;  // placeholder identities 1..v are reserved
    if (used_x_.contains(x)) continue;
    return x;
  }
}

SecurityManager::AddedUser SecurityManager::add_user(Rng& rng) {
  const Bigint x = fresh_x(rng);
  const std::uint64_t id = users_.size();
  users_.push_back(UserRecord{id, x, false, 0});
  used_x_.insert(x);
  record(ManagerMutation{.kind = ManagerMutation::Kind::kAddUser, .x = x});
  obs::counter("dfky_users_added_total").inc();
  return AddedUser{id, issue_user_key(sp_, msk_, x, pk_.period)};
}

SecurityManager::AddedUser SecurityManager::add_user_with_value(
    const Bigint& x) {
  const Bigint xr = sp_.group.zq().reduce(x);
  require(!xr.is_zero(), "add_user_with_value: x must be nonzero");
  require(xr > Bigint(static_cast<long>(sp_.v)),
          "add_user_with_value: x collides with placeholder identities");
  require(!used_x_.contains(xr), "add_user_with_value: x already in use");
  const std::uint64_t id = users_.size();
  users_.push_back(UserRecord{id, xr, false, 0});
  used_x_.insert(xr);
  record(ManagerMutation{.kind = ManagerMutation::Kind::kAddUser, .x = xr});
  obs::counter("dfky_users_added_total").inc();
  return AddedUser{id, issue_user_key(sp_, msk_, xr, pk_.period)};
}

const UserRecord& SecurityManager::user(std::uint64_t id) const {
  require(id < users_.size(), "SecurityManager: unknown user id");
  return users_[id];
}

std::optional<SignedResetBundle> SecurityManager::remove_user(
    std::uint64_t id, Rng& rng, const Encryptor* kem) {
  return remove_user(id, rng, default_mode_, kem);
}

std::optional<SignedResetBundle> SecurityManager::remove_user(
    std::uint64_t id, Rng& rng, ResetMode mode, const Encryptor* kem) {
  require(id < users_.size(), "remove_user: unknown user id");
  UserRecord& rec = users_[id];
  require(!rec.revoked, "remove_user: user already revoked");

  std::optional<SignedResetBundle> bundle;
  if (level_ == sp_.v) {
    bundle = new_period(rng, mode, kem);
  }
  revoke_into_slot(sp_, msk_, pk_, level_, rec.x, gens_);
  ++level_;
  rec.revoked = true;
  rec.revoked_in_period = pk_.period;
  ++revoked_users_;
  record(ManagerMutation{.kind = ManagerMutation::Kind::kRemoveUser,
                         .user_id = id});
  obs::counter("dfky_users_revoked_total").inc();
  obs::gauge("dfky_saturation_level").set(static_cast<std::int64_t>(level_));
  obs::event({.name = "revoke",
              .period = static_cast<std::int64_t>(pk_.period),
              .user = static_cast<std::int64_t>(id),
              .detail = "slot",
              .value = static_cast<std::int64_t>(level_)});
  return bundle;
}

std::vector<SignedResetBundle> SecurityManager::remove_users(
    std::span<const std::uint64_t> ids, Rng& rng, const Encryptor* kem) {
  return remove_users(ids, rng, default_mode_, kem);
}

std::vector<SignedResetBundle> SecurityManager::remove_users(
    std::span<const std::uint64_t> ids, Rng& rng, ResetMode mode,
    const Encryptor* kem) {
  // All-or-nothing validation before any state change.
  std::set<std::uint64_t> seen;
  for (std::uint64_t id : ids) {
    require(id < users_.size(), "remove_users: unknown user id");
    require(!users_[id].revoked, "remove_users: user already revoked");
    require(seen.insert(id).second, "remove_users: duplicate user id");
  }
  std::vector<SignedResetBundle> bundles;
  for (std::uint64_t id : ids) {
    auto bundle = remove_user(id, rng, mode, kem);
    if (bundle) bundles.push_back(std::move(*bundle));
  }
  return bundles;
}

SignedResetBundle SecurityManager::new_period(Rng& rng, const Encryptor* kem) {
  return new_period(rng, default_mode_, kem);
}

SecurityManager::SecurityManager(RestoreTag, SystemParams sp,
                                 MasterSecret msk, PublicKey pk,
                                 SchnorrKeyPair sign_key, ResetMode mode,
                                 std::size_t level,
                                 std::vector<UserRecord> users,
                                 std::size_t archive_capacity,
                                 std::deque<SignedResetBundle> archive)
    : sp_(std::move(sp)),
      msk_(std::move(msk)),
      pk_(std::move(pk)),
      sign_key_(std::move(sign_key)),
      default_mode_(mode),
      level_(level),
      users_(std::move(users)),
      archive_capacity_(archive_capacity),
      archive_(std::move(archive)) {
  for (const UserRecord& u : users_) {
    used_x_.insert(u.x);
    if (u.revoked) ++revoked_users_;
  }
}

Bytes SecurityManager::save_state() const {
  Writer w;
  w.put_u32(kStateMagic);
  w.put_u8(kStateVersion);
  // Group and system parameters.
  w.put_u8(sp_.group.is_elliptic() ? 1 : 0);
  if (sp_.group.is_elliptic()) {
    const CurveSpec& c = sp_.group.curve();
    put_bigint(w, c.p);
    put_bigint(w, c.a);
    put_bigint(w, c.b);
    put_bigint(w, c.q);
    put_bigint(w, c.gx);
    put_bigint(w, c.gy);
  } else {
    put_bigint(w, sp_.group.p());
    put_bigint(w, sp_.group.order());
    put_bigint(w, sp_.group.params().g);
  }
  put_gelt(w, sp_.group, sp_.g);
  put_gelt(w, sp_.group, sp_.g2);
  w.put_u64(sp_.v);
  // Master secret.
  put_poly_fixed(w, msk_.a, sp_.v);
  put_poly_fixed(w, msk_.b, sp_.v);
  // Public key, signing key, bookkeeping.
  pk_.serialize(w, sp_.group);
  sign_key_.serialize_secret(w, sp_.group);
  w.put_u8(static_cast<std::uint8_t>(default_mode_));
  w.put_u64(level_);
  w.put_u64(users_.size());
  for (const UserRecord& u : users_) {
    w.put_u64(u.id);
    put_bigint(w, u.x);
    w.put_u8(u.revoked ? 1 : 0);
    w.put_u64(u.revoked_in_period);
  }
  // v2: the signed-reset archive that answers catch-up requests.
  w.put_u64(archive_capacity_);
  w.put_u64(archive_.size());
  for (const SignedResetBundle& b : archive_) b.serialize(w, sp_.group);
  return std::move(w).take();
}

SecurityManager SecurityManager::restore_state(BytesView state) {
  Reader r(state);
  if (r.get_u32() != kStateMagic) {
    throw DecodeError("SecurityManager: bad state magic");
  }
  if (r.get_u8() != kStateVersion) {
    throw DecodeError("SecurityManager: unsupported state version");
  }
  const std::uint8_t group_kind = r.get_u8();
  if (group_kind > 1) throw DecodeError("SecurityManager: bad group kind");
  std::optional<Group> group_opt;
  if (group_kind == 1) {
    CurveSpec c;
    c.p = get_bigint(r);
    c.a = get_bigint(r);
    c.b = get_bigint(r);
    c.q = get_bigint(r);
    c.gx = get_bigint(r);
    c.gy = get_bigint(r);
    group_opt.emplace(c);
  } else {
    GroupParams gp;
    gp.p = get_bigint(r);
    gp.q = get_bigint(r);
    gp.g = get_bigint(r);
    group_opt.emplace(gp);
  }
  Group& group = *group_opt;
  SystemParams sp{group, Gelt(), Gelt(), 0};
  sp.g = get_gelt(r, group);
  sp.g2 = get_gelt(r, group);
  sp.v = r.get_u64();
  if (sp.v == 0 || sp.v > (1u << 20)) {
    throw DecodeError("SecurityManager: implausible saturation limit");
  }
  r.check_count(2 * (sp.v + 1), 4);  // coefficient length prefixes
  MasterSecret msk{get_poly_fixed(r, group.zq(), sp.v),
                   get_poly_fixed(r, group.zq(), sp.v)};
  PublicKey pk = PublicKey::deserialize(r, group);
  if (pk.slots.size() != sp.v) {
    throw DecodeError("SecurityManager: slot count mismatch");
  }
  SchnorrKeyPair sign_key = SchnorrKeyPair::deserialize_secret(r, group);
  const auto mode_raw = r.get_u8();
  if (mode_raw > 1) throw DecodeError("SecurityManager: bad reset mode");
  const std::size_t level = r.get_u64();
  if (level > sp.v) throw DecodeError("SecurityManager: bad saturation level");
  const std::uint64_t n = r.get_u64();
  r.check_count(n, 8 + 4 + 1 + 8);  // id + x length prefix + flag + period
  std::vector<UserRecord> users;
  users.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    UserRecord u;
    u.id = r.get_u64();
    u.x = get_bigint(r);
    u.revoked = r.get_u8() != 0;
    u.revoked_in_period = r.get_u64();
    if (u.id != i) throw DecodeError("SecurityManager: non-sequential ids");
    users.push_back(std::move(u));
  }
  const std::size_t archive_capacity = r.get_u64();
  if (archive_capacity == 0 || archive_capacity > (1u << 16)) {
    throw DecodeError("SecurityManager: implausible archive capacity");
  }
  const std::uint64_t an = r.get_u64();
  if (an > archive_capacity) {
    throw DecodeError("SecurityManager: archive exceeds its capacity");
  }
  if (an > pk.period) {
    throw DecodeError("SecurityManager: archive longer than period history");
  }
  r.check_count(an, 9 + 2 * group.element_size());
  std::deque<SignedResetBundle> archive;
  for (std::uint64_t i = 0; i < an; ++i) {
    archive.push_back(SignedResetBundle::deserialize(r, group));
    // Must be the consecutive run ending at the current period.
    if (archive.back().reset.new_period != pk.period - (an - 1 - i)) {
      throw DecodeError("SecurityManager: archive periods inconsistent");
    }
  }
  r.expect_end();
  return SecurityManager(RestoreTag{}, std::move(sp), std::move(msk),
                         std::move(pk), std::move(sign_key),
                         static_cast<ResetMode>(mode_raw), level,
                         std::move(users), archive_capacity,
                         std::move(archive));
}

SignedResetBundle SecurityManager::new_period(Rng& rng, ResetMode mode,
                                              const Encryptor* kem) {
  static obs::Histogram& new_period_ns = obs::histogram("dfky_new_period_ns");
  obs::ScopedTimer span(new_period_ns);
  obs::counter("dfky_resets_generated_total",
               {{"mode", mode == ResetMode::kPlain ? "plain" : "hybrid"}})
      .inc();
  const Zq& zq = sp_.group.zq();
  const Polynomial d = Polynomial::random(zq, sp_.v, rng);
  const Polynomial e = Polynomial::random(zq, sp_.v, rng);

  SignedResetBundle bundle;
  // The caller's Encryptor serves only while it is complete and holds this
  // key: a batch that rolls twice, or a laggard's later rolls, see a newer
  // key than the one it was cached for.
  std::optional<Encryptor> own;
  if (!kem || !kem->complete() || kem->public_key() != pk_) {
    kem = &own.emplace(sp_, pk_, gens_);
  }
  bundle.reset = build_reset_message(*kem, d, e, mode, rng);
  bundle.signature =
      sign_key_.sign(sp_.group, bundle.signed_payload(sp_.group), rng);

  apply_new_period(d, e, bundle);

  if (record_mutations_) {
    ManagerMutation m{.kind = ManagerMutation::Kind::kNewPeriod,
                      .bundle = bundle};
    m.d.reserve(sp_.v + 1);
    m.e.reserve(sp_.v + 1);
    for (std::size_t i = 0; i <= sp_.v; ++i) {
      m.d.push_back(d.coeff(i));
      m.e.push_back(e.coeff(i));
    }
    record(std::move(m));
  }
  obs::gauge("dfky_saturation_level").set(0);
  obs::event({.name = "new_period",
              .period = static_cast<std::int64_t>(pk_.period),
              .detail = mode == ResetMode::kPlain ? "plain" : "hybrid"});
  return bundle;
}

void SecurityManager::apply_new_period(const Polynomial& d,
                                       const Polynomial& e,
                                       const SignedResetBundle& bundle) {
  msk_.a = msk_.a + d;
  msk_.b = msk_.b + e;
  pk_ = make_fresh_public_key(sp_, msk_, pk_.period + 1, gens_);
  level_ = 0;
  archive_.push_back(bundle);
  while (archive_.size() > archive_capacity_) archive_.pop_front();
}

void SecurityManager::record(ManagerMutation m) {
  if (record_mutations_) mutation_log_.push_back(std::move(m));
}

void SecurityManager::set_mutation_recording(bool on) {
  record_mutations_ = on;
  if (!on) mutation_log_.clear();
}

std::vector<ManagerMutation> SecurityManager::take_mutation_log() {
  std::vector<ManagerMutation> out = std::move(mutation_log_);
  mutation_log_.clear();
  return out;
}

void SecurityManager::apply_mutation(const ManagerMutation& m) {
  switch (m.kind) {
    case ManagerMutation::Kind::kAddUser: {
      if (m.x.is_zero() || used_x_.contains(m.x)) {
        throw DecodeError("apply_mutation: add-user record reuses x");
      }
      const std::uint64_t id = users_.size();
      users_.push_back(UserRecord{id, m.x, false, 0});
      used_x_.insert(m.x);
      return;
    }
    case ManagerMutation::Kind::kRemoveUser: {
      if (m.user_id >= users_.size()) {
        throw DecodeError("apply_mutation: remove record names unknown user");
      }
      UserRecord& rec = users_[m.user_id];
      if (rec.revoked) {
        throw DecodeError("apply_mutation: remove record for revoked user");
      }
      if (level_ == sp_.v) {
        throw DecodeError(
            "apply_mutation: saturated without a new-period record");
      }
      revoke_into_slot(sp_, msk_, pk_, level_, rec.x, gens_);
      ++level_;
      rec.revoked = true;
      rec.revoked_in_period = pk_.period;
      ++revoked_users_;
      return;
    }
    case ManagerMutation::Kind::kNewPeriod: {
      if (m.d.size() != sp_.v + 1 || m.e.size() != sp_.v + 1) {
        throw DecodeError("apply_mutation: bad randomizer coefficient count");
      }
      if (m.bundle.reset.new_period != pk_.period + 1) {
        throw DecodeError("apply_mutation: new-period record out of order");
      }
      const Zq& zq = sp_.group.zq();
      apply_new_period(Polynomial(zq, m.d), Polynomial(zq, m.e), m.bundle);
      return;
    }
  }
  throw DecodeError("apply_mutation: unknown record kind");
}

void SecurityManager::set_reset_archive_capacity(std::size_t k) {
  require(k >= 1, "set_reset_archive_capacity: capacity must be >= 1");
  archive_capacity_ = k;
  while (archive_.size() > archive_capacity_) archive_.pop_front();
}

std::uint64_t SecurityManager::archive_oldest_period() const {
  return archive_.empty() ? pk_.period + 1
                          : archive_.front().reset.new_period;
}

CatchUpResponse SecurityManager::handle_catch_up(const CatchUpRequest& req,
                                                 Rng& rng) const {
  obs::counter("dfky_catchup_requests_handled_total").inc();
  CatchUpResponse resp;
  resp.nonce = req.nonce;
  resp.oldest_available = archive_oldest_period();
  const std::uint64_t from = req.have_period + 1;
  if (from >= resp.oldest_available) {
    const std::uint64_t to = std::min(req.want_period, pk_.period);
    for (const SignedResetBundle& b : archive_) {
      if (b.reset.new_period < from) continue;
      if (b.reset.new_period > to) break;
      resp.bundles.push_back(b);
    }
  }
  resp.signature =
      sign_key_.sign(sp_.group, resp.signed_payload(sp_.group), rng);
  return resp;
}

}  // namespace dfky
