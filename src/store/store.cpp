#include "store/store.h"

#include <algorithm>
#include <chrono>
#include <new>

#include "crypto/crc32c.h"
#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "serial/codec.h"

namespace dfky {

namespace {

constexpr std::uint32_t kKeyMagic = 0x6466736b;   // "dfsk"
constexpr std::uint32_t kSnapMagic = 0x64667374;  // "dfst"
constexpr std::uint32_t kWalMagic = 0x6466776c;   // "dfwl"
constexpr std::uint32_t kTermMagic = 0x6466746d;  // "dftm"
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kTagSize = Sha256::kDigestSize;
constexpr std::size_t kFrameHeader = kWalFrameHeaderBytes;
constexpr std::size_t kWalHeader = kWalHeaderBytes;
constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 28;

std::string snap_name(std::uint64_t gen) {
  return StateStore::kSnapPrefix + std::to_string(gen);
}
std::string wal_name(std::uint64_t gen) {
  return StateStore::kWalPrefix + std::to_string(gen);
}

std::string join(const std::string& dir, const std::string& name) {
  return dir.empty() ? name : dir + "/" + name;
}

/// Takes the directory's LOCK file or throws StoreLockedError. On success
/// the returned guard releases the lock on destruction until ownership is
/// transferred to the StateStore (`disarm()`).
struct LockGuard {
  FileIo* io = nullptr;
  std::string path;

  static LockGuard acquire(FileIo& io, const std::string& dir) {
    const std::string path = join(dir, StateStore::kLockFile);
    std::uint64_t holder = 0;
    if (!io.lock(path, &holder)) {
      throw StoreLockedError("state store: " + dir + " is locked by pid " +
                             std::to_string(holder));
    }
    return LockGuard{&io, path};
  }
  void disarm() { io = nullptr; }
  ~LockGuard() {
    if (io == nullptr) return;
    try {
      io->unlock(path);
    } catch (...) {
      // Releasing on an error path must not mask the original exception.
    }
  }
};

/// snap.<digits> / wal.<digits> -> the generation; nullopt otherwise.
std::optional<std::uint64_t> parse_gen(const std::string& name,
                                       const char* prefix) {
  const std::string p = prefix;
  if (name.size() <= p.size() || name.compare(0, p.size(), p) != 0) {
    return std::nullopt;
  }
  std::uint64_t gen = 0;
  for (std::size_t i = p.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    if (gen > (UINT64_MAX - 9) / 10) return std::nullopt;
    gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return gen;
}

Sha256::Digest chain_next(BytesView key, const Sha256::Digest& prev,
                          BytesView payload) {
  HmacSha256 h(key);
  h.update(prev);
  h.update(payload);
  return h.finish();
}

Sha256::Digest snapshot_tag(BytesView key, std::uint64_t gen,
                            BytesView payload) {
  static constexpr char kLabel[] = "dfky-snap-v1";
  Writer g8;
  g8.put_u64(gen);
  HmacSha256 h(key);
  h.update(BytesView(reinterpret_cast<const byte*>(kLabel), sizeof kLabel));
  h.update(g8.bytes());
  h.update(payload);
  return h.finish();
}

Bytes encode_key_file(BytesView key32) {
  Writer w;
  w.put_u32(kKeyMagic);
  w.put_u8(kVersion);
  w.put_raw(key32);
  w.put_u32(crc32c(key32));
  return std::move(w).take();
}

Bytes decode_key_file(BytesView raw) {
  Reader r(raw);
  if (r.get_u32() != kKeyMagic) throw DecodeError("store.key: bad magic");
  if (r.get_u8() != kVersion) throw DecodeError("store.key: bad version");
  Bytes key = r.get_raw(32);
  if (r.get_u32() != crc32c(key)) throw DecodeError("store.key: bad checksum");
  r.expect_end();
  return key;
}

Bytes encode_term_file(std::uint64_t term) {
  Writer w;
  w.put_u32(kTermMagic);
  w.put_u8(kVersion);
  w.put_u64(term);
  w.put_u32(crc32c(w.bytes()));
  return std::move(w).take();
}

/// 0 when the file is absent or fails validation — a corrupt TERM only
/// regresses the node's view; peers carrying the real term re-fence it on
/// the first exchange, so treating damage as "never failed over" is safe.
std::uint64_t read_term_file(FileIo& io, const std::string& dir) {
  const std::string p = join(dir, StateStore::kTermFile);
  if (!io.exists(p)) return 0;
  try {
    const Bytes raw = io.read(p);
    Reader r(raw);
    if (r.get_u32() != kTermMagic) return 0;
    if (r.get_u8() != kVersion) return 0;
    const std::uint64_t term = r.get_u64();
    if (r.get_u32() != crc32c(BytesView(raw.data(), 4 + 1 + 8))) return 0;
    r.expect_end();
    return term;
  } catch (const Error&) {
    return 0;
  }
}

Bytes encode_snapshot(BytesView key, std::uint64_t gen, BytesView payload,
                      Sha256::Digest& tag_out) {
  tag_out = snapshot_tag(key, gen, payload);
  Writer w;
  w.put_u32(kSnapMagic);
  w.put_u8(kVersion);
  w.put_u64(gen);
  w.put_blob(payload);
  w.put_u32(crc32c(payload));
  w.put_raw(tag_out);
  return std::move(w).take();
}

struct SnapInfo {
  Bytes payload;
  Sha256::Digest tag{};
};

/// Structural + integrity validation of one snapshot file; nullopt on any
/// mismatch (truncated frame, CRC, HMAC, wrong generation).
std::optional<SnapInfo> parse_snapshot(BytesView raw, BytesView key,
                                       std::uint64_t expected_gen) {
  try {
    Reader r(raw);
    if (r.get_u32() != kSnapMagic) return std::nullopt;
    if (r.get_u8() != kVersion) return std::nullopt;
    if (r.get_u64() != expected_gen) return std::nullopt;
    SnapInfo info;
    info.payload = r.get_blob();
    if (r.get_u32() != crc32c(info.payload)) return std::nullopt;
    const Bytes tag = r.get_raw(kTagSize);
    r.expect_end();
    const Sha256::Digest want = snapshot_tag(key, expected_gen, info.payload);
    if (!std::equal(tag.begin(), tag.end(), want.begin())) return std::nullopt;
    std::copy(want.begin(), want.end(), info.tag.begin());
    return info;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

Bytes encode_wal_header(std::uint64_t gen, const Sha256::Digest& seed) {
  Writer w;
  w.put_u32(kWalMagic);
  w.put_u8(kVersion);
  w.put_u64(gen);
  w.put_raw(seed);
  return std::move(w).take();
}

Bytes encode_record(BytesView key, const Sha256::Digest& prev,
                    BytesView payload, Sha256::Digest& tag_out) {
  tag_out = chain_next(key, prev, payload);
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_u32(crc32c(payload));
  w.put_raw(tag_out);
  w.put_raw(payload);
  return std::move(w).take();
}

std::uint32_t read_be32(BytesView raw, std::size_t off) {
  return (static_cast<std::uint32_t>(raw[off]) << 24) |
         (static_cast<std::uint32_t>(raw[off + 1]) << 16) |
         (static_cast<std::uint32_t>(raw[off + 2]) << 8) |
         static_cast<std::uint32_t>(raw[off + 3]);
}

/// Counts the frames a torn tail *looks like* it holds (for reporting; the
/// bytes are untrusted, so this is an estimate by length-prefix walking).
std::size_t estimate_frames(BytesView raw, std::size_t off) {
  std::size_t count = 0;
  while (off < raw.size()) {
    ++count;
    if (raw.size() - off < kFrameHeader) break;
    const std::size_t len = read_be32(raw, off);
    if (len > kMaxRecordBytes || raw.size() - off - kFrameHeader < len) break;
    off += kFrameHeader + len;
  }
  return count;
}

struct WalRecord {
  Bytes payload;
  std::size_t end = 0;  // offset one past this record's frame
  Sha256::Digest tag{};
};

struct WalScan {
  bool header_ok = false;
  std::vector<WalRecord> records;  // CRC- and chain-valid prefix
  std::size_t valid_end = 0;       // bytes of validated prefix (incl. header)
  std::size_t tail_bytes = 0;      // bytes past the validated prefix
  std::size_t tail_records = 0;    // estimated frames among those bytes
};

/// Integrity scan of a WAL file: header fields, then the longest prefix of
/// records whose length, CRC32C and HMAC chain all verify.
WalScan scan_wal(BytesView raw, BytesView key, std::uint64_t gen,
                 const Sha256::Digest& seed) {
  WalScan s;
  if (raw.size() < kWalHeader) {
    s.tail_bytes = raw.size();
    s.tail_records = raw.empty() ? 0 : 1;
    return s;
  }
  Reader r(raw);
  Bytes seed_in;
  if (r.get_u32() != kWalMagic || r.get_u8() != kVersion ||
      r.get_u64() != gen ||
      (seed_in = r.get_raw(kTagSize),
       !std::equal(seed_in.begin(), seed_in.end(), seed.begin()))) {
    s.tail_bytes = raw.size();
    s.tail_records = 1;
    return s;
  }
  s.header_ok = true;
  s.valid_end = kWalHeader;
  Sha256::Digest chain = seed;
  while (true) {
    if (r.remaining() < kFrameHeader) break;
    const std::size_t len = r.get_u32();
    const std::uint32_t crc = r.get_u32();
    const Bytes tag = r.get_raw(kTagSize);
    if (len > kMaxRecordBytes || len > r.remaining()) break;
    const Bytes payload = r.get_raw(len);
    if (crc32c(payload) != crc) break;
    const Sha256::Digest want = chain_next(key, chain, payload);
    if (!std::equal(tag.begin(), tag.end(), want.begin())) break;
    chain = want;
    const std::size_t end = raw.size() - r.remaining();
    s.records.push_back(WalRecord{payload, end, want});
    s.valid_end = end;
  }
  s.tail_bytes = raw.size() - s.valid_end;
  s.tail_records = estimate_frames(raw, s.valid_end);
  return s;
}

/// Multiexps a replay of `m` redoes (StateStore::replay_weight).
std::uint64_t replay_weight_of(const ManagerMutation& m, std::size_t v) {
  switch (m.kind) {
    case ManagerMutation::Kind::kAddUser:
      return 0;
    case ManagerMutation::Kind::kRemoveUser:
      return 1;  // revoke_into_slot
    case ManagerMutation::Kind::kNewPeriod:
      return v + 1;  // make_fresh_public_key
  }
  return 0;
}

}  // namespace

// ---- StateStore ----------------------------------------------------------------

StateStore::StateStore(FileIo& io, std::string dir, StoreOptions opts,
                       SecurityManager mgr, Bytes key)
    : io_(&io),
      dir_(std::move(dir)),
      opts_(opts),
      mgr_(std::move(mgr)),
      key_(std::move(key)) {}

StateStore::StateStore(StateStore&& other) noexcept
    : io_(other.io_),
      dir_(std::move(other.dir_)),
      opts_(other.opts_),
      mgr_(std::move(other.mgr_)),
      key_(std::move(other.key_)),
      gen_(other.gen_),
      term_(other.term_),
      index_(std::move(other.index_)),
      seed_(other.seed_),
      snapshot_bytes_(other.snapshot_bytes_),
      chain_tag_(other.chain_tag_),
      recovery_(other.recovery_),
      locked_(other.locked_),
      batching_(other.batching_),
      poisoned_(other.poisoned_),
      pending_(std::move(other.pending_)),
      staged_(std::move(other.staged_)),
      last_sync_append_done_ns_(other.last_sync_append_done_ns_) {
  other.io_ = nullptr;
  other.locked_ = false;
}

StateStore& StateStore::operator=(StateStore&& other) noexcept {
  if (this == &other) return *this;
  this->~StateStore();
  new (this) StateStore(std::move(other));
  return *this;
}

StateStore::~StateStore() {
  if (locked_ && io_ != nullptr) {
    try {
      io_->unlock(path(kLockFile));
    } catch (...) {
      // Destructors must not throw; a failed unlock only delays reuse
      // until the process exits.
    }
  }
}

std::string StateStore::path(const std::string& name) const {
  return join(dir_, name);
}

StateStore StateStore::create(FileIo& io, std::string dir,
                              SecurityManager manager, Rng& rng,
                              StoreOptions opts) {
  if (!io.is_dir(dir)) io.mkdir(dir);
  // Exclusion before the already-a-store check: a locked directory answers
  // "locked by pid N", not "already holds a store".
  LockGuard lock = LockGuard::acquire(io, dir);
  if (io.exists(join(dir, kKeyFile))) {
    throw ContractError("state store: " + dir + " already holds a store");
  }
  Bytes key = rng.bytes(32);
  StateStore s(io, std::move(dir), opts, std::move(manager), std::move(key));
  s.locked_ = true;
  lock.disarm();

  io.write(s.path(kKeyFile), encode_key_file(s.key_));
  io.fsync_file(s.path(kKeyFile));

  const Bytes payload = s.mgr_.save_state();
  Sha256::Digest tag{};
  const Bytes frame = encode_snapshot(s.key_, 0, payload, tag);
  const std::string tmp = s.path(snap_name(0) + kTmpSuffix);
  io.write(tmp, frame);
  io.fsync_file(tmp);
  io.rename(tmp, s.path(snap_name(0)));
  io.write(s.path(wal_name(0)), encode_wal_header(0, tag));
  io.fsync_file(s.path(wal_name(0)));
  // Commit point: generation 0's entries and the store directory itself.
  io.fsync_dir(s.dir_);
  io.fsync_dir(dirname_of(s.dir_));

  s.start_generation(0, tag, frame.size());
  s.recovery_.generation = 0;
  s.mgr_.set_mutation_recording(true);
  s.mgr_.take_mutation_log();  // discard records from before the store existed
  return s;
}

StateStore StateStore::open(FileIo& io, std::string dir, StoreOptions opts) {
  static obs::Histogram& store_recovery_ns =
      obs::histogram("dfky_store_recovery_ns");
  obs::ScopedTimer span(store_recovery_ns);
  if (!io.is_dir(dir)) {
    throw DecodeError("state store: no such directory: " + dir);
  }
  // Exclusion first: recovery WRITES (tail truncation, stale cleanup), so
  // even open() must never run concurrently with another holder.
  LockGuard lock = LockGuard::acquire(io, dir);
  Bytes key;
  try {
    key = decode_key_file(io.read(join(dir, kKeyFile)));
  } catch (const IoError&) {
    throw DecodeError("state store: " + dir + " has no store.key");
  }

  // Newest generation whose snapshot passes CRC + HMAC + restore.
  std::vector<std::uint64_t> gens;
  for (const std::string& name : io.list(dir)) {
    if (const auto g = parse_gen(name, kSnapPrefix)) gens.push_back(*g);
  }
  std::sort(gens.rbegin(), gens.rend());
  RecoveryReport rep;
  std::optional<SecurityManager> mgr;
  std::uint64_t gen = 0;
  Sha256::Digest seed{};
  std::size_t snap_bytes = 0;
  for (const std::uint64_t g : gens) {
    Bytes raw;
    try {
      raw = io.read(join(dir, snap_name(g)));
    } catch (const IoError&) {
      ++rep.skipped_snapshots;
      continue;
    }
    const auto info = parse_snapshot(raw, key, g);
    if (!info) {
      ++rep.skipped_snapshots;
      continue;
    }
    try {
      mgr.emplace(SecurityManager::restore_state(info->payload));
    } catch (const Error&) {
      ++rep.skipped_snapshots;
      continue;
    }
    gen = g;
    seed = info->tag;
    snap_bytes = raw.size();
    break;
  }
  if (!mgr) {
    throw DecodeError("state store: no valid snapshot in " + dir);
  }
  rep.generation = gen;

  // Replay the WAL suffix; truncate whatever fails integrity or replay.
  const std::string wal = join(dir, wal_name(gen));
  std::vector<WalIndexEntry> index;
  bool rewrote_wal = false;
  if (io.exists(wal)) {
    const Bytes raw = io.read(wal);
    const WalScan scan = scan_wal(raw, key, gen, seed);
    if (!scan.header_ok) {
      rep.truncated_bytes += scan.tail_bytes;
      rep.truncated_records += scan.tail_records;
      io.write(wal, encode_wal_header(gen, seed));
      io.fsync_file(wal);
      rewrote_wal = true;
    } else {
      std::size_t keep_end = kWalHeader;
      const Group& group = mgr->params().group;
      std::uint64_t weight = 0;
      std::size_t i = 0;
      for (; i < scan.records.size(); ++i) {
        const WalRecord& rec = scan.records[i];
        try {
          Reader pr(rec.payload);
          const ManagerMutation m = ManagerMutation::deserialize(pr, group);
          pr.expect_end();
          mgr->apply_mutation(m);
          weight += replay_weight_of(m, mgr->params().v);
        } catch (const Error&) {
          break;  // semantically torn: drop this record and everything after
        }
        index.push_back(WalIndexEntry{rec.end, weight, rec.tag});
        keep_end = rec.end;
      }
      rep.truncated_records += (scan.records.size() - i) + scan.tail_records;
      rep.truncated_bytes += raw.size() - keep_end;
      if (keep_end < raw.size()) {
        io.truncate(wal, keep_end);
        io.fsync_file(wal);
        rewrote_wal = true;
      }
    }
  } else {
    // Snapshot durable but its WAL never made it: start an empty one.
    io.write(wal, encode_wal_header(gen, seed));
    io.fsync_file(wal);
    rewrote_wal = true;
  }
  rep.replayed_records = index.size();

  // Remove anything that is not the live generation (the LOCK file we are
  // holding is infrastructure, not state — unlinking it would hand a
  // third process a lock on a fresh inode).
  bool dirty_dir = rewrote_wal;
  for (const std::string& name : io.list(dir)) {
    if (name == kKeyFile || name == kLockFile || name == kTermFile ||
        name == snap_name(gen) || name == wal_name(gen)) {
      continue;
    }
    io.remove(join(dir, name));
    ++rep.stale_files_removed;
    dirty_dir = true;
  }
  if (dirty_dir) io.fsync_dir(dir);

  obs::counter("dfky_store_recoveries_total").inc();
  obs::counter("dfky_store_recovery_replayed_records_total")
      .inc(rep.replayed_records);
  obs::counter("dfky_store_recovery_truncated_records_total")
      .inc(rep.truncated_records);
  obs::counter("dfky_store_recovery_truncated_bytes_total")
      .inc(rep.truncated_bytes);
  obs::event({.name = "store_recovery",
              .period = static_cast<std::int64_t>(mgr->period()),
              .detail = rep.truncated_records > 0 ? "truncated" : "clean",
              .value = static_cast<std::int64_t>(rep.replayed_records)});

  StateStore s(io, std::move(dir), opts, std::move(*mgr), std::move(key));
  s.start_generation(gen, seed, snap_bytes);
  s.index_ = std::move(index);
  if (!s.index_.empty()) s.chain_tag_ = s.index_.back().tag;
  s.term_ = read_term_file(io, s.dir_);
  s.recovery_ = rep;
  s.mgr_.set_mutation_recording(true);
  s.locked_ = true;
  lock.disarm();
  return s;
}

void StateStore::set_term(std::uint64_t t) {
  if (t <= term_) return;
  const std::string tmp = path(std::string(kTermFile) + kTmpSuffix);
  io_->write(tmp, encode_term_file(t));
  io_->fsync_file(tmp);
  io_->rename(tmp, path(kTermFile));
  io_->fsync_dir(dir_);
  term_ = t;
}

void StateStore::stage_record(const ManagerMutation& m) {
  Writer pw;
  m.serialize(pw, mgr_.params().group);
  Sha256::Digest tag{};
  const Bytes frame = encode_record(key_, chain_tag_, pw.bytes(), tag);
  pending_.insert(pending_.end(), frame.begin(), frame.end());
  const std::uint64_t weight =
      (staged_.empty() ? replay_weight() : staged_.back().weight) +
      replay_weight_of(m, mgr_.params().v);
  staged_.push_back(WalIndexEntry{wal_bytes() + pending_.size(), weight, tag});
  chain_tag_ = tag;
}

void StateStore::ensure_usable() const {
  if (poisoned_) {
    throw StorePoisonedError(
        "state store: " + dir_ +
        " is poisoned by an earlier WAL write failure; reopen to recover");
  }
}

void StateStore::commit() {
  const std::vector<ManagerMutation> muts = mgr_.take_mutation_log();
  if (muts.empty()) return;
  // The chain tag advances past every staged frame, so staged records and
  // any follow-ups land as one contiguous valid WAL run.
  for (const ManagerMutation& m : muts) stage_record(m);
  // Batched: durability (and the rotation check) waits for sync().
  if (batching_) return;
  land_staged();
  if (const char* trigger = rotation_due()) rotate(trigger);
}

void StateStore::land_staged() {
  try {
    static obs::Histogram& store_wal_append_ns =
        obs::histogram("dfky_store_wal_append_ns");
    obs::ScopedTimer span(store_wal_append_ns);
    io_->append(path(wal_name(gen_)), pending_);
    last_sync_append_done_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    io_->fsync_file(path(wal_name(gen_)));
  } catch (...) {
    // The append may have landed (fully or torn) even though the fsync
    // failed. Retrying would append byte-identical duplicate frames,
    // breaking the HMAC chain and truncating every later acked batch at
    // recovery — so the store fail-stops instead: keep pending_ staged,
    // refuse further work, and let a fresh open() recover the valid
    // prefix that actually reached the file.
    poisoned_ = true;
    obs::counter("dfky_store_poisoned_total").inc();
    throw;
  }
  obs::counter("dfky_store_wal_appends_total").inc(staged_.size());
  index_.insert(index_.end(), staged_.begin(), staged_.end());
  pending_.clear();
  staged_.clear();
}

void StateStore::flush_pending() {
  const std::size_t records = staged_.size();
  if (records == 0) return;
  land_staged();
  obs::counter("dfky_store_group_commits_total").inc();
  obs::counter("dfky_store_group_commit_records_total").inc(records);
}

void StateStore::sync() {
  ensure_usable();
  flush_pending();
  if (const char* trigger = rotation_due()) rotate(trigger);
}

std::size_t StateStore::wal_bytes() const {
  return index_.empty() ? kWalHeader : index_.back().end;
}

std::uint64_t StateStore::replay_weight() const {
  return index_.empty() ? 0 : index_.back().weight;
}

std::uint64_t StateStore::replay_weight_limit() const {
  return kRotationMinRecords * (mgr_.params().v + 1);
}

const char* StateStore::rotation_due() const {
  if (opts_.snapshot_every) {
    return wal_records() >= *opts_.snapshot_every ? "records" : nullptr;
  }
  if (wal_records() < kRotationMinRecords) return nullptr;
  // Bytes: writing the snapshot costs about what appending the WAL did,
  // so rotation stays a constant factor of the append work (the AOF-rewrite
  // rule). Replay: recovery never redoes more group arithmetic than the
  // fixed 64-record schedule could leave behind.
  if (wal_bytes() >= snapshot_bytes_) return "bytes";
  if (replay_weight() >= replay_weight_limit()) return "replay";
  return nullptr;
}

void StateStore::start_generation(std::uint64_t gen, const Sha256::Digest& seed,
                                  std::size_t snapshot_bytes) {
  gen_ = gen;
  seed_ = seed;
  chain_tag_ = seed;
  snapshot_bytes_ = snapshot_bytes;
  index_.clear();
}

void StateStore::set_batching(bool on) {
  // A poisoned store must NOT flush its staged frames (they may already be
  // on disk); the daemon's shutdown path reaches here after a fail-stop.
  if (!on && batching_ && !poisoned_) sync();
  batching_ = on;
}

SecurityManager::AddedUser StateStore::add_user(Rng& rng) {
  ensure_usable();
  auto added = mgr_.add_user(rng);
  commit();
  return added;
}

SecurityManager::AddedUser StateStore::add_user_with_value(const Bigint& x) {
  ensure_usable();
  auto added = mgr_.add_user_with_value(x);
  commit();
  return added;
}

std::vector<SignedResetBundle> StateStore::remove_users(
    std::span<const std::uint64_t> ids, Rng& rng, const Encryptor* kem) {
  ensure_usable();
  auto bundles = mgr_.remove_users(ids, rng, kem);
  commit();
  return bundles;
}

SignedResetBundle StateStore::new_period(Rng& rng, const Encryptor* kem) {
  ensure_usable();
  auto bundle = mgr_.new_period(rng, kem);
  commit();
  return bundle;
}

void StateStore::snapshot() { rotate("manual"); }

void StateStore::rotate(const char* trigger) {
  ensure_usable();
  // Batched frames were chained against the current generation's WAL;
  // land them there before rotating (the records are then superseded by
  // the snapshot, but the old WAL stays self-consistent if the rotation
  // is torn).
  flush_pending();
  static obs::Histogram& store_snapshot_ns =
      obs::histogram("dfky_store_snapshot_ns");
  obs::ScopedTimer span(store_snapshot_ns);
  const std::uint64_t next = gen_ + 1;
  const Bytes payload = mgr_.save_state();
  Sha256::Digest tag{};
  const Bytes frame = encode_snapshot(key_, next, payload, tag);
  const std::string tmp = path(snap_name(next) + kTmpSuffix);
  io_->write(tmp, frame);
  io_->fsync_file(tmp);
  io_->rename(tmp, path(snap_name(next)));
  io_->write(path(wal_name(next)), encode_wal_header(next, tag));
  io_->fsync_file(path(wal_name(next)));
  // Commit point: the new generation's entries become durable together.
  io_->fsync_dir(dir_);
  const std::uint64_t old = gen_;
  start_generation(next, tag, frame.size());
  obs::counter("dfky_store_snapshots_total").inc();
  obs::event({.name = "store_snapshot",
              .period = static_cast<std::int64_t>(mgr_.period()),
              .detail = trigger,
              .value = static_cast<std::int64_t>(payload.size())});
  // Best-effort cleanup; a crash from here on only leaves stale files that
  // the next open()/fsck removes.
  try {
    io_->remove(path(snap_name(old)));
    io_->remove(path(wal_name(old)));
    io_->fsync_dir(dir_);
  } catch (const IoError&) {
    // Leftovers are harmless; CrashPoint (not IoError) still propagates.
  }
}

// ---- replication ---------------------------------------------------------------

namespace {

std::string hex_of(BytesView raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() * 2);
  for (const byte b : raw) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace

std::string StateStore::chain_head_hex() const {
  return hex_of(BytesView(chain_tag_.data(), chain_tag_.size()));
}

WalShipment StateStore::read_frames_from(std::uint64_t start_record,
                                         std::size_t max_bytes) const {
  ensure_usable();
  if (start_record > index_.size()) {
    throw ContractError("state store: read_frames_from(" +
                        std::to_string(start_record) + ") past the " +
                        std::to_string(index_.size()) + " durable record(s)");
  }
  WalShipment out;
  out.generation = gen_;
  out.start_record = start_record;
  // Staged batch frames live in pending_, never in the index, so only
  // durable records — the only ones a replica may see — are shipped.
  const std::uint64_t begin =
      start_record == 0 ? kWalHeader : index_[start_record - 1].end;
  std::size_t last = start_record;
  while (last < index_.size() &&
         (max_bytes == 0 || last == start_record ||
          index_[last].end - begin <= max_bytes)) {
    ++last;
  }
  if (last == start_record) return out;
  const std::uint64_t end = index_[last - 1].end;
  out.frames = io_->read_range(path(wal_name(gen_)), begin, end - begin);
  if (out.frames.size() != end - begin) {
    throw DecodeError("state store: " + wal_name(gen_) + " truncated");
  }
  out.records = last - start_record;
  return out;
}

Bytes StateStore::read_snapshot_frame() const {
  ensure_usable();
  return io_->read(path(snap_name(gen_)));
}

std::uint64_t StateStore::replica_apply_frames(std::uint64_t gen,
                                               std::uint64_t start_record,
                                               BytesView frames) {
  ensure_usable();
  if (batching_) {
    throw ContractError("state store: replica apply requires batching off");
  }
  if (gen != gen_) {
    throw DecodeError("state store: replica shipment for generation " +
                      std::to_string(gen) + ", store is at " +
                      std::to_string(gen_));
  }
  if (start_record > index_.size()) {
    throw DecodeError("state store: replica shipment starts at record " +
                      std::to_string(start_record) + " past our " +
                      std::to_string(index_.size()));
  }
  // Validate the whole shipment before touching disk or state: skip the
  // overlap (records we already hold — dup re-delivery), then CRC-, chain-
  // and parse-check every new record. A torn final frame (truncated mid
  // record) is dropped; the primary re-ships it whole. A record that fails
  // verification, by contrast, means the streams diverged — throw.
  std::vector<ManagerMutation> muts;
  std::vector<WalIndexEntry> fresh;  // index entries of the new records
  std::uint64_t weight = replay_weight();
  Sha256::Digest chain = chain_tag_;
  std::uint64_t idx = start_record;
  std::size_t new_begin = 0, new_end = 0;
  bool have_new = false;
  std::size_t off = 0;
  while (off < frames.size()) {
    if (frames.size() - off < kFrameHeader) break;  // torn header
    const std::size_t len = read_be32(frames, off);
    if (len > kMaxRecordBytes || frames.size() - off - kFrameHeader < len) {
      break;  // torn payload
    }
    const std::size_t end = off + kFrameHeader + len;
    if (idx < index_.size()) {  // dup: already durable here, skip structurally
      off = end;
      ++idx;
      continue;
    }
    const std::uint32_t crc = read_be32(frames, off + 4);
    const BytesView tag = frames.subspan(off + 8, kTagSize);
    const BytesView payload = frames.subspan(off + kFrameHeader, len);
    if (crc32c(payload) != crc) {
      throw DecodeError("state store: replica frame " + std::to_string(idx) +
                        " fails CRC");
    }
    const Sha256::Digest want = chain_next(key_, chain, payload);
    if (!std::equal(tag.begin(), tag.end(), want.begin())) {
      throw DecodeError("state store: replica frame " + std::to_string(idx) +
                        " breaks the HMAC chain — streams diverged");
    }
    try {
      Reader pr(payload);
      muts.push_back(ManagerMutation::deserialize(pr, mgr_.params().group));
      pr.expect_end();
    } catch (const Error& e) {
      throw DecodeError("state store: replica frame " + std::to_string(idx) +
                        " does not parse: " + e.what());
    }
    if (!have_new) {
      new_begin = off;
      have_new = true;
    }
    new_end = end;
    chain = want;
    weight += replay_weight_of(muts.back(), mgr_.params().v);
    fresh.push_back(WalIndexEntry{wal_bytes() + (end - new_begin), weight,
                                  want});
    ++idx;
    off = end;
  }
  if (!have_new) return index_.size();  // pure dup (or torn-only) shipment
  try {
    static obs::Histogram& store_wal_append_ns =
        obs::histogram("dfky_store_wal_append_ns");
    obs::ScopedTimer span(store_wal_append_ns);
    io_->append(path(wal_name(gen_)),
                Bytes(frames.begin() + static_cast<std::ptrdiff_t>(new_begin),
                      frames.begin() + static_cast<std::ptrdiff_t>(new_end)));
    io_->fsync_file(path(wal_name(gen_)));
  } catch (...) {
    // Same fail-stop contract as flush_pending: the frames may be partially
    // on disk, so this process can no longer extend the chain.
    poisoned_ = true;
    obs::counter("dfky_store_poisoned_total").inc();
    throw;
  }
  for (const ManagerMutation& m : muts) {
    try {
      mgr_.apply_mutation(m);
    } catch (...) {
      // Durable but unappliable: memory and disk disagree. Fail-stop; a
      // reopen replays the file and surfaces the same error deterministically.
      poisoned_ = true;
      throw;
    }
  }
  index_.insert(index_.end(), fresh.begin(), fresh.end());
  chain_tag_ = chain;
  obs::counter("dfky_store_replica_frames_total").inc(muts.size());
  return index_.size();
}

void StateStore::replica_apply_snapshot(std::uint64_t new_gen,
                                        BytesView frame) {
  ensure_usable();
  if (batching_) {
    throw ContractError("state store: replica apply requires batching off");
  }
  if (new_gen <= gen_) return;  // dup re-delivery of a rotation we hold
  const auto info = parse_snapshot(frame, key_, new_gen);
  if (!info) {
    throw DecodeError("state store: shipped snapshot for generation " +
                      std::to_string(new_gen) + " fails validation");
  }
  SecurityManager restored = SecurityManager::restore_state(info->payload);
  restored.set_generator_tables(mgr_.generator_tables());
  // Durable install, mirroring snapshot(): temp + fsync + rename, fresh WAL
  // seeded from the snapshot tag, then directory fsync as the commit point.
  const std::string tmp = path(snap_name(new_gen) + kTmpSuffix);
  io_->write(tmp, Bytes(frame.begin(), frame.end()));
  io_->fsync_file(tmp);
  io_->rename(tmp, path(snap_name(new_gen)));
  io_->write(path(wal_name(new_gen)), encode_wal_header(new_gen, info->tag));
  io_->fsync_file(path(wal_name(new_gen)));
  io_->fsync_dir(dir_);
  const std::uint64_t old = gen_;
  start_generation(new_gen, info->tag, frame.size());
  mgr_ = std::move(restored);
  mgr_.set_mutation_recording(true);
  obs::counter("dfky_store_replica_snapshots_total").inc();
  try {
    io_->remove(path(snap_name(old)));
    io_->remove(path(wal_name(old)));
    io_->fsync_dir(dir_);
  } catch (const IoError&) {
    // Leftovers are harmless; the next open()/fsck removes them.
  }
}

std::string StateStore::chain_tag_hex_at(std::uint64_t records) const {
  if (records > index_.size()) {
    throw DecodeError("state store: chain_tag_hex_at(" +
                      std::to_string(records) + ") past the " +
                      std::to_string(index_.size()) + " durable record(s)");
  }
  const Sha256::Digest& tag = records == 0 ? seed_ : index_[records - 1].tag;
  return hex_of(BytesView(tag.data(), tag.size()));
}

std::uint64_t StateStore::replica_truncate(std::uint64_t gen,
                                           std::uint64_t records,
                                           const std::string& expected_tag_hex) {
  if (batching_) {
    throw ContractError("state store: replica truncate requires batching off");
  }
  if (gen != gen_) {
    throw DecodeError("state store: replica truncate for generation " +
                      std::to_string(gen) + " but the store is at " +
                      std::to_string(gen_));
  }
  if (records > index_.size()) {
    throw DecodeError("state store: replica truncate to " +
                      std::to_string(records) + " record(s) past the " +
                      std::to_string(index_.size()) + " held");
  }
  if (chain_tag_hex_at(records) != expected_tag_hex) {
    throw DecodeError("state store: chain tag mismatch at record " +
                      std::to_string(records) +
                      " — divergence predates the requested prefix");
  }
  if (records == index_.size()) return records;  // nothing forked here

  // The retained prefix matches the primary's history byte for byte; drop
  // the forked suffix and rebuild memory from what is left on disk.
  const std::size_t keep_end =
      records == 0 ? kWalHeader : index_[records - 1].end;
  const Bytes kept =
      io_->read_range(path(wal_name(gen_)), 0, keep_end);
  if (kept.size() != keep_end) {
    throw DecodeError("state store: " + wal_name(gen_) + " truncated");
  }
  const std::uint64_t dropped = index_.size() - records;
  io_->truncate(path(wal_name(gen_)), keep_end);
  io_->fsync_file(path(wal_name(gen_)));
  try {
    const auto info =
        parse_snapshot(io_->read(path(snap_name(gen_))), key_, gen_);
    if (!info) {
      throw DecodeError("state store: " + snap_name(gen_) +
                        " fails validation during truncate rebuild");
    }
    SecurityManager restored = SecurityManager::restore_state(info->payload);
    restored.set_generator_tables(mgr_.generator_tables());
    const Group& group = restored.params().group;
    std::size_t off = kWalHeader;
    for (std::uint64_t i = 0; i < records; ++i) {
      const std::size_t end = index_[i].end;
      Reader pr(BytesView(kept).subspan(off + kFrameHeader,
                                        end - off - kFrameHeader));
      const ManagerMutation m = ManagerMutation::deserialize(pr, group);
      pr.expect_end();
      restored.apply_mutation(m);
      off = end;
    }
    mgr_ = std::move(restored);
  } catch (...) {
    // File already truncated but memory could not be rebuilt: disk and
    // memory disagree, same contract as a failed flush.
    poisoned_ = true;
    throw;
  }
  index_.resize(records);
  chain_tag_ = records == 0 ? seed_ : index_.back().tag;
  mgr_.set_mutation_recording(true);
  mgr_.take_mutation_log();
  poisoned_ = false;  // disk and memory were just re-reconciled
  obs::counter("dfky_store_replica_truncates_total").inc();
  obs::event({.name = "replica_truncate",
              .period = static_cast<std::int64_t>(mgr_.period()),
              .detail = dir_,
              .value = static_cast<std::int64_t>(dropped)});
  return records;
}

void clone_store_files(FileIo& src, FileIo& dst, const std::string& dir) {
  if (!src.is_dir(dir)) {
    throw DecodeError("clone: no such directory: " + dir);
  }
  if (!dst.is_dir(dir)) dst.mkdir(dir);
  for (const std::string& name : src.list(dir)) {
    if (name == StateStore::kLockFile) continue;  // per-process, never cloned
    const std::string p = join(dir, name);
    dst.write(p, src.read(p));
    dst.fsync_file(p);
  }
  // list() reports regular files only; a shard root's subdirectories are
  // probed by their well-known names.
  for (std::size_t i = 0; src.is_dir(join(dir, shard_dir_name(i))); ++i) {
    clone_store_files(src, dst, join(dir, shard_dir_name(i)));
  }
  dst.fsync_dir(dir);
}

WalInspection inspect_store_wal(FileIo& io, const std::string& dir) {
  WalInspection r;
  if (!io.is_dir(dir)) {
    r.notes.push_back("no such directory: " + dir);
    return r;
  }
  Bytes key;
  try {
    key = decode_key_file(io.read(join(dir, StateStore::kKeyFile)));
  } catch (const Error& e) {
    r.notes.push_back(std::string("store.key unusable: ") + e.what());
    return r;
  }
  std::vector<std::uint64_t> gens;
  for (const std::string& name : io.list(dir)) {
    if (const auto g = parse_gen(name, StateStore::kSnapPrefix)) {
      gens.push_back(*g);
    }
  }
  std::sort(gens.rbegin(), gens.rend());
  std::optional<SecurityManager> mgr;
  Sha256::Digest seed{};
  for (const std::uint64_t g : gens) {
    Bytes raw;
    try {
      raw = io.read(join(dir, snap_name(g)));
    } catch (const IoError&) {
      continue;
    }
    const auto info = parse_snapshot(raw, key, g);
    if (!info) continue;
    try {
      mgr.emplace(SecurityManager::restore_state(info->payload));
    } catch (const Error&) {
      continue;
    }
    r.generation = g;
    seed = info->tag;
    break;
  }
  if (!mgr) {
    r.notes.push_back("no valid snapshot");
    return r;
  }
  r.chain_head_hex = hex_of(BytesView(seed.data(), seed.size()));
  const std::string wal = join(dir, wal_name(r.generation));
  if (!io.exists(wal)) {
    r.notes.push_back(wal_name(r.generation) + " missing");
    r.period = mgr->period();
    r.ok = true;  // a snapshot with no WAL is an empty (zero-record) log
    return r;
  }
  const Bytes raw = io.read(wal);
  const WalScan scan = scan_wal(raw, key, r.generation, seed);
  if (!scan.header_ok) {
    r.notes.push_back(wal_name(r.generation) + ": bad header");
    r.period = mgr->period();
    return r;
  }
  std::size_t keep_end = kWalHeader;
  const Group& group = mgr->params().group;
  for (const WalRecord& rec : scan.records) {
    try {
      Reader pr(rec.payload);
      const ManagerMutation m = ManagerMutation::deserialize(pr, group);
      pr.expect_end();
      mgr->apply_mutation(m);
    } catch (const Error&) {
      break;  // semantically torn tail
    }
    ++r.records;
    keep_end = rec.end;
    r.chain_head_hex = hex_of(BytesView(rec.tag.data(), rec.tag.size()));
  }
  if (keep_end < raw.size()) {
    r.notes.push_back(wal_name(r.generation) + ": " +
                      std::to_string(raw.size() - keep_end) +
                      " torn tail byte(s)");
  }
  r.frames.assign(raw.begin() + kWalHeader,
                  raw.begin() + static_cast<std::ptrdiff_t>(keep_end));
  r.frame_bytes = r.frames.size();
  r.period = mgr->period();
  r.ok = true;
  return r;
}

// ---- sharded deployments -------------------------------------------------------

std::string shard_dir_name(std::size_t shard) {
  return "shard." + std::to_string(shard);
}

bool is_shard_root(FileIo& io, const std::string& dir) {
  return io.is_dir(dir) && io.is_dir(join(dir, shard_dir_name(0)));
}

std::size_t count_shards(FileIo& io, const std::string& dir) {
  std::size_t n = 0;
  while (io.is_dir(join(dir, shard_dir_name(n)))) ++n;
  return n;
}

std::vector<StateStore> create_shard_set(FileIo& io, const std::string& root,
                                         std::vector<SecurityManager> managers,
                                         Rng& rng, StoreOptions opts) {
  if (managers.empty()) {
    throw ContractError("shard set: need at least one shard");
  }
  if (!io.is_dir(root)) io.mkdir(root);
  if (io.exists(join(root, StateStore::kKeyFile))) {
    throw ContractError("shard set: " + root + " already holds a plain store");
  }
  if (is_shard_root(io, root)) {
    throw ContractError("shard set: " + root + " already holds a shard set");
  }
  std::vector<StateStore> shards;
  shards.reserve(managers.size());
  for (std::size_t i = 0; i < managers.size(); ++i) {
    shards.push_back(StateStore::create(io, join(root, shard_dir_name(i)),
                                        std::move(managers[i]), rng, opts));
  }
  // The shard.<i> entries are part of the committed layout.
  io.fsync_dir(root);
  return shards;
}

std::vector<StateStore> open_shard_set(FileIo& io, const std::string& root,
                                       Rng& rng, StoreOptions opts,
                                       ShardSetReport* report) {
  const std::size_t n = count_shards(io, root);
  if (n == 0) {
    throw DecodeError("shard set: " + root + " has no shard.0 directory");
  }
  // All-or-nothing locking: a StoreLockedError on any shard propagates and
  // the already-opened shards release their LOCKs on unwind, so a partially
  // locked set never lingers.
  std::vector<StateStore> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back(StateStore::open(io, join(root, shard_dir_name(i)), opts));
  }
  // Epoch equalization. Shards diverge in exactly two ways: a crash between
  // the two phases of a cross-shard new-period (some shards' WAL syncs
  // landed, some did not — the barrier was never acked, so completing it is
  // safe), and saturating revokes that rolled one shard autonomously. Both
  // resolve the same way: roll every lagging shard forward to the maximum
  // period; each roll is an ordinary durable new-period whose reset bundle
  // lands in that shard's archive for receiver catch-up.
  std::uint64_t epoch = 0;
  for (const StateStore& s : shards) {
    epoch = std::max(epoch, s.manager().period());
  }
  std::size_t rolled = 0;
  for (StateStore& s : shards) {
    while (s.manager().period() < epoch) {
      s.new_period(rng);
      ++rolled;
    }
  }
  if (report != nullptr) {
    report->shards = n;
    report->epoch = epoch;
    report->rolled_forward = rolled;
    report->recoveries.clear();
    for (const StateStore& s : shards) {
      report->recoveries.push_back(s.recovery_report());
    }
  }
  obs::counter("dfky_store_shard_set_opens_total").inc();
  obs::counter("dfky_store_shard_rollforwards_total").inc(rolled);
  return shards;
}

std::vector<StateStore> open_deployment(FileIo& io, const std::string& dir,
                                        Rng& rng, StoreOptions opts,
                                        ShardSetReport* report) {
  if (is_shard_root(io, dir)) {
    return open_shard_set(io, dir, rng, opts, report);
  }
  std::vector<StateStore> stores;
  stores.push_back(StateStore::open(io, dir, opts));
  if (report != nullptr) {
    report->shards = 1;
    report->epoch = stores[0].manager().period();
    report->rolled_forward = 0;
    report->recoveries = {stores[0].recovery_report()};
  }
  return stores;
}

// ---- fsck ----------------------------------------------------------------------

FsckReport fsck_store(FileIo& io, const std::string& dir, bool repair) {
  FsckReport r;
  if (!io.is_dir(dir)) {
    r.unrecoverable = true;
    r.notes.push_back("no such directory: " + dir);
    return r;
  }
  Bytes key;
  try {
    key = decode_key_file(io.read(join(dir, StateStore::kKeyFile)));
  } catch (const Error& e) {
    r.unrecoverable = true;
    r.notes.push_back(std::string("store.key unusable: ") + e.what());
    return r;
  }

  if (repair) {
    try {
      const StateStore s = StateStore::open(io, dir);
      const RecoveryReport& rr = s.recovery_report();
      r.ok = true;
      r.generation = rr.generation;
      r.period = s.manager().period();
      r.wal_records = rr.replayed_records;
      r.torn_tail_bytes = rr.truncated_bytes;
      r.stale_files = rr.stale_files_removed;
      r.repaired = rr.truncated_records > 0 || rr.truncated_bytes > 0 ||
                   rr.stale_files_removed > 0 || rr.skipped_snapshots > 0;
      if (rr.truncated_records > 0) {
        r.notes.push_back("truncated " + std::to_string(rr.truncated_records) +
                          " torn record(s), " +
                          std::to_string(rr.truncated_bytes) + " byte(s)");
      }
      if (rr.skipped_snapshots > 0) {
        r.notes.push_back("skipped " + std::to_string(rr.skipped_snapshots) +
                          " invalid snapshot(s)");
      }
      if (rr.stale_files_removed > 0) {
        r.notes.push_back("removed " + std::to_string(rr.stale_files_removed) +
                          " stale file(s)");
      }
    } catch (const Error& e) {
      r.unrecoverable = true;
      r.notes.push_back(e.what());
    }
    return r;
  }

  // Check-only: same validation as open(), nothing written.
  std::vector<std::uint64_t> gens;
  std::size_t entries = 0;
  for (const std::string& name : io.list(dir)) {
    if (name == StateStore::kLockFile || name == StateStore::kTermFile) {
      continue;  // infrastructure, not state
    }
    ++entries;
    if (const auto g = parse_gen(name, StateStore::kSnapPrefix)) {
      gens.push_back(*g);
    }
  }
  std::sort(gens.rbegin(), gens.rend());
  std::optional<SecurityManager> mgr;
  Sha256::Digest seed{};
  std::size_t skipped = 0;
  for (const std::uint64_t g : gens) {
    Bytes raw;
    try {
      raw = io.read(join(dir, snap_name(g)));
    } catch (const IoError&) {
      ++skipped;
      continue;
    }
    const auto info = parse_snapshot(raw, key, g);
    if (!info) {
      ++skipped;
      continue;
    }
    try {
      mgr.emplace(SecurityManager::restore_state(info->payload));
    } catch (const Error&) {
      ++skipped;
      continue;
    }
    r.generation = g;
    seed = info->tag;
    break;
  }
  if (skipped > 0) {
    r.notes.push_back(std::to_string(skipped) + " invalid snapshot(s)");
  }
  if (!mgr) {
    r.unrecoverable = true;
    r.notes.push_back("no valid snapshot");
    return r;
  }

  const std::string wal = join(dir, wal_name(r.generation));
  bool wal_clean = false;
  if (!io.exists(wal)) {
    r.notes.push_back(wal_name(r.generation) + " missing");
  } else {
    const Bytes raw = io.read(wal);
    const WalScan scan = scan_wal(raw, key, r.generation, seed);
    if (!scan.header_ok) {
      r.torn_tail_bytes = scan.tail_bytes;
      r.notes.push_back(wal_name(r.generation) + ": bad header");
    } else {
      std::size_t keep_end = kWalHeader;
      const Group& group = mgr->params().group;
      std::size_t i = 0;
      for (; i < scan.records.size(); ++i) {
        try {
          Reader pr(scan.records[i].payload);
          const ManagerMutation m = ManagerMutation::deserialize(pr, group);
          pr.expect_end();
          mgr->apply_mutation(m);
        } catch (const Error&) {
          break;
        }
        ++r.wal_records;
        keep_end = scan.records[i].end;
      }
      r.torn_tail_bytes = raw.size() - keep_end;
      wal_clean = r.torn_tail_bytes == 0;
      if (!wal_clean) {
        r.notes.push_back(wal_name(r.generation) + ": torn tail (" +
                          std::to_string(r.torn_tail_bytes) + " byte(s), ~" +
                          std::to_string((scan.records.size() - i) +
                                         scan.tail_records) +
                          " record(s))");
      }
    }
  }

  r.period = mgr->period();

  // Anything beyond {store.key, snap.<g>, wal.<g>} is stale.
  r.stale_files =
      entries - 1 /* store.key */ - 1 /* snap */ - (io.exists(wal) ? 1 : 0);
  if (r.stale_files > 0) {
    r.notes.push_back(std::to_string(r.stale_files) + " stale file(s)");
  }
  r.ok = wal_clean && r.stale_files == 0 && skipped == 0;
  return r;
}

}  // namespace dfky
