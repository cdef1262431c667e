// Crash-consistent durable store for the security manager's state
// (DESIGN.md Sect. 9).
//
// On-disk layout (one directory per deployment):
//
//   <dir>/store.key   32-byte HMAC key, CRC-framed; written once at create
//   <dir>/snap.<g>    checksummed full snapshot of generation g
//   <dir>/wal.<g>     write-ahead log of ManagerMutation records since g
//
// Exactly one generation is live at a time; a snapshot rotation writes
// snap.<g+1> via write-to-temp / fsync / rename / fsync-dir, starts a fresh
// WAL seeded from the new snapshot's HMAC tag, and only then removes the
// old generation. Every WAL record is framed with a length, a CRC32C of the
// payload, and an HMAC-SHA256 chained from the previous record's tag, so a
// torn tail, a bit flip and a spliced-in record are all detected. open()
// loads the newest valid snapshot, replays the WAL suffix, truncates any
// torn tail, removes stale files, and reports what it did.
//
// Mutations are durable (appended + fsynced) before the mutating call
// returns — the acknowledgement contract a manager daemon needs.
#pragma once

#include "core/manager.h"
#include "crypto/sha256.h"
#include "store/file_io.h"

namespace dfky {

/// Fewest WAL records a size-proportional rotation waits for.
inline constexpr std::size_t kRotationMinRecords = 64;

struct StoreOptions {
  /// Unset (the default): rotate once the WAL holds kRotationMinRecords
  /// records and either its bytes reach the live snapshot's or its replay
  /// weight reaches replay_weight_limit() (DESIGN.md Sect. 9.2), so the
  /// rotations' share of an ack does not grow with the population. Set:
  /// rotate every `snapshot_every` WAL records.
  std::optional<std::size_t> snapshot_every;
};

/// Bytes of framing per WAL record: u32 payload length, u32 CRC32C, and the
/// 32-byte chained HMAC tag. Shared with the replication transport, which
/// splits shipments on frame boundaries.
inline constexpr std::size_t kWalFrameHeaderBytes = 4 + 4 + Sha256::kDigestSize;
/// Bytes of a WAL file's header: magic, version, generation, chain seed.
inline constexpr std::size_t kWalHeaderBytes = 4 + 1 + 8 + Sha256::kDigestSize;

/// A slice of a primary's live WAL, framed exactly as on disk, ready to be
/// appended verbatim by a replica that shares the store's HMAC key.
struct WalShipment {
  std::uint64_t generation = 0;    // WAL generation the frames belong to
  std::uint64_t start_record = 0;  // index of the first framed record
  std::uint64_t records = 0;       // whole records in `frames`
  Bytes frames;                    // raw frame bytes (no WAL header)
};

/// Another process holds the store directory's LOCK file. Distinct from
/// DecodeError: the store is fine, it is just in use.
class StoreLockedError : public Error {
 public:
  explicit StoreLockedError(const std::string& what) : Error(what) {}
};

/// A WAL append/fsync failed after frames may have reached the file, so
/// the in-memory state and the on-disk log can no longer be reconciled by
/// this process: every further mutation/sync on the store throws this.
/// Reopening the directory (a fresh open() replays what actually landed)
/// is the only recovery path.
class StorePoisonedError : public Error {
 public:
  explicit StorePoisonedError(const std::string& what) : Error(what) {}
};

/// What open() found and repaired. All zeros after a clean open.
struct RecoveryReport {
  std::uint64_t generation = 0;      // generation recovered into
  std::size_t replayed_records = 0;  // WAL records applied on top of the snapshot
  std::size_t truncated_records = 0; // torn/corrupt tail records dropped
  std::size_t truncated_bytes = 0;
  std::size_t skipped_snapshots = 0; // newer generations whose snapshot failed validation
  std::size_t stale_files_removed = 0;  // leftover tmp/old-generation files
};

class StateStore {
 public:
  /// Creates a fresh store directory around `manager` (the directory must
  /// not already contain a store). `rng` supplies the 32-byte HMAC key.
  /// The initial snapshot is durable when this returns.
  static StateStore create(FileIo& io, std::string dir,
                           SecurityManager manager, Rng& rng,
                           StoreOptions opts = {});
  /// Opens an existing store: newest valid snapshot + WAL replay + torn
  /// tail truncation + stale file cleanup. Throws DecodeError when the
  /// directory holds no recoverable store.
  ///
  /// Both create() and open() first take the directory's LOCK file
  /// (flock-style advisory exclusion, threaded through FileIo) and throw
  /// StoreLockedError("... is locked by pid N") when another process —
  /// e.g. a live dfkyd — holds it. The lock is released by the destructor.
  static StateStore open(FileIo& io, std::string dir, StoreOptions opts = {});

  StateStore(StateStore&& other) noexcept;
  StateStore& operator=(StateStore&& other) noexcept;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;
  /// Releases the LOCK file (the file itself stays behind; see FileIo::lock).
  ~StateStore();

  const SecurityManager& manager() const { return mgr_; }

  // -- mutating operations; each is durable before it returns -------------------
  SecurityManager::AddedUser add_user(Rng& rng);
  SecurityManager::AddedUser add_user_with_value(const Bigint& x);
  std::vector<SignedResetBundle> remove_users(
      std::span<const std::uint64_t> ids, Rng& rng);
  SignedResetBundle new_period(Rng& rng);

  /// Forces a snapshot rotation now (also taken automatically after a
  /// commit or sync, by the StoreOptions rule). Flushes any batched
  /// records first.
  void snapshot();

  // -- group commit --------------------------------------------------------------
  /// While batching is on, mutations still validate, apply and frame their
  /// WAL records immediately, but the records accumulate in memory instead
  /// of reaching the file: they are NOT durable until sync() issues the
  /// batch's single append+fsync. This is the knob the daemon's committer
  /// thread uses to amortize one fsync over a whole batch of concurrent
  /// clients — callers must not acknowledge a mutation before sync()
  /// returns. Turning batching off flushes anything pending.
  void set_batching(bool on);
  bool batching() const { return batching_; }
  /// One append + one fsync for every record accumulated since the last
  /// sync; then a snapshot rotation if one is due. No-op when nothing is
  /// pending.
  void sync();
  /// Records applied to the manager but not yet durable (batching only).
  std::size_t unsynced_records() const { return staged_.size(); }
  /// Steady-clock ns at which the last WAL append returned,
  /// before its fsync began — the wal_append/fsync split point request
  /// traces use (DESIGN.md Sect. 13). 0 until the first flush, and always
  /// 0 under DFKY_OBS=OFF.
  std::uint64_t last_sync_append_done_ns() const {
    return last_sync_append_done_ns_;
  }
  /// True after a WAL append/fsync failed mid-flush. The staged frames may
  /// be partially on disk; re-appending them would write byte-identical
  /// duplicate records, break the HMAC chain, and cost every LATER acked
  /// batch at recovery — so a poisoned store refuses all further mutations
  /// (StorePoisonedError) and set_batching(false) skips its flush. What
  /// already reached the file is a valid chain prefix; a fresh open()
  /// recovers it.
  bool poisoned() const { return poisoned_; }

  std::uint64_t generation() const { return gen_; }
  /// Durable records in the live WAL.
  std::size_t wal_records() const { return index_.size(); }
  /// Bytes of the live WAL file: its header plus the durable records.
  std::size_t wal_bytes() const;
  /// Bytes of the live generation's snapshot file.
  std::size_t snapshot_bytes() const { return snapshot_bytes_; }
  /// Multiexps a replay of the live WAL redoes: a remove-user record
  /// weighs 1, a new-period record v + 1 (the fresh public key), an
  /// add-user record 0.
  std::uint64_t replay_weight() const;
  /// kRotationMinRecords * (v + 1): the replay weight at which the
  /// default rule rotates, so no recovery replays more.
  std::uint64_t replay_weight_limit() const;
  const RecoveryReport& recovery_report() const { return recovery_; }
  const std::string& dir() const { return dir_; }
  /// Hex of the WAL chain head (the last record's HMAC tag, or the live
  /// snapshot's seed tag when the WAL is empty). Two replicas whose chain
  /// heads match hold byte-identical logs.
  std::string chain_head_hex() const;

  // -- replication (DESIGN.md Sect. 12) ------------------------------------------
  //
  // Replicas are bootstrapped by cloning the primary's store directory
  // (clone_store_files), so primary and follower share one HMAC key and one
  // chain history. Replication then ships raw WAL frames: the follower
  // appends them verbatim, which keeps the replicas byte-identical and lets
  // the ordinary chain verification authenticate the stream.

  /// Reads up to `max_bytes` of whole framed records from the live WAL,
  /// starting at record index `start_record` (0-based; must not exceed
  /// wal_records()). `max_bytes = 0` means no cap. Only durable records are
  /// shipped — staged batch frames never appear. The frame index locates
  /// the slice, so the file read covers the shipped bytes only.
  WalShipment read_frames_from(std::uint64_t start_record,
                               std::size_t max_bytes = 0) const;
  /// The live generation's snapshot file, verbatim. Shipping this exact
  /// frame (rather than re-encoding current state) matters: its tag seeds
  /// the live WAL's chain, so a follower installing it can verify and
  /// append the frames that follow.
  Bytes read_snapshot_frame() const;

  /// Follower ingest: verifies and appends WAL frames shipped from the
  /// primary. `start_record` anchors the shipment: records the follower
  /// already holds (index < wal_records()) are skipped structurally (dup
  /// re-delivery is a no-op), a gap (start_record > wal_records()) throws
  /// DecodeError, and a generation mismatch throws DecodeError (the primary
  /// resyncs with a snapshot). New records must pass CRC + HMAC chain
  /// verification from the current chain head; a torn final frame is
  /// ignored (the primary re-ships it whole). Valid new records are
  /// appended + fsynced, then applied to the manager. Returns the record
  /// count after ingest — the sequence number to ack.
  std::uint64_t replica_apply_frames(std::uint64_t gen,
                                     std::uint64_t start_record,
                                     BytesView frames);
  /// Follower ingest of a shipped snapshot rotation (or bootstrap resync):
  /// validates the frame against the shared key, durably installs it as
  /// generation `new_gen` with a fresh WAL, restores the manager from its
  /// payload, and removes the superseded generation. `new_gen <=
  /// generation()` is an idempotent no-op (dup re-delivery).
  void replica_apply_snapshot(std::uint64_t new_gen, BytesView frame);

  /// Hex of the chain tag after the first `records` WAL records (0 = the
  /// snapshot seed tag; wal_records() = chain_head_hex()). This is what a
  /// primary compares against a follower's reported chain head to detect a
  /// forked suffix. Throws DecodeError when `records` exceeds the log.
  std::string chain_tag_hex_at(std::uint64_t records) const;

  /// Fencing recovery: discards every WAL record past `records` after
  /// verifying that the retained prefix's chain tag equals
  /// `expected_tag_hex` (the new primary's tag at that depth). The WAL file
  /// is physically truncated and the manager is rebuilt from the snapshot +
  /// retained prefix, so a fenced ex-primary can drop its forked suffix and
  /// re-join the promoted node's history via ordinary replica_apply_frames.
  /// `gen` must match the live generation. Returns the record count after
  /// truncation. A tag mismatch throws DecodeError and changes nothing —
  /// the caller walks further back.
  std::uint64_t replica_truncate(std::uint64_t gen, std::uint64_t records,
                                 const std::string& expected_tag_hex);

  // -- failover term (DESIGN.md Sect. 14) -----------------------------------------
  /// Monotonic failover term persisted in <dir>/TERM (CRC-framed, written
  /// via tmp + fsync + rename). 0 when the file is absent — a cluster that
  /// never failed over. Loaded by open()/create().
  std::uint64_t term() const { return term_; }
  /// Durably persists `t` as the store's term. Lower-than-current values
  /// are ignored (terms only move forward).
  void set_term(std::uint64_t t);

  // -- layout constants shared with dfky_fsck ------------------------------------
  static constexpr char kKeyFile[] = "store.key";
  static constexpr char kSnapPrefix[] = "snap.";
  static constexpr char kWalPrefix[] = "wal.";
  static constexpr char kTmpSuffix[] = ".tmp";
  static constexpr char kLockFile[] = "LOCK";
  static constexpr char kTermFile[] = "TERM";

 private:
  StateStore(FileIo& io, std::string dir, StoreOptions opts,
             SecurityManager mgr, Bytes key);

  /// One WAL record's place in the live generation.
  struct WalIndexEntry {
    std::uint64_t end = 0;     // file offset one past the record's frame
    std::uint64_t weight = 0;  // replay weight of this record and all before
    Sha256::Digest tag{};      // chain tag after this record
  };

  /// Drains the manager's mutation log into the WAL and fsyncs it (or, in
  /// batching mode, stages the frames for the next sync()).
  void commit();
  /// Frames `m` onto pending_ and advances the chain tag.
  void stage_record(const ManagerMutation& m);
  /// One append + fsync of pending_, then the staged entries join the
  /// index. A failed append/fsync poisons the store before the exception
  /// propagates.
  void land_staged();
  /// The staged batch's land_staged(), counted as a group commit (no
  /// rotation check).
  void flush_pending();
  /// Which rule makes a rotation due now ("records", "bytes" or
  /// "replay"), or nullptr.
  const char* rotation_due() const;
  void rotate(const char* trigger);
  /// Makes `gen`, seeded by `seed`, the live generation with an empty WAL.
  void start_generation(std::uint64_t gen, const Sha256::Digest& seed,
                        std::size_t snapshot_bytes);
  /// Throws StorePoisonedError when a previous WAL failure poisoned us.
  void ensure_usable() const;
  std::string path(const std::string& name) const;

  FileIo* io_;  // null only in a moved-from store
  std::string dir_;
  StoreOptions opts_;
  SecurityManager mgr_;
  Bytes key_;  // HMAC key (never leaves the store directory)
  std::uint64_t gen_ = 0;
  std::uint64_t term_ = 0;  // failover term from <dir>/TERM (0 = absent)
  std::vector<WalIndexEntry> index_;  // one per durable WAL record
  Sha256::Digest seed_{};       // the live snapshot's tag, seeding the chain
  std::size_t snapshot_bytes_ = 0;
  Sha256::Digest chain_tag_{};  // tag of the last WAL record (or the seed)
  RecoveryReport recovery_;
  bool locked_ = false;
  bool batching_ = false;
  bool poisoned_ = false;  // WAL failed mid-write; mutations refused
  Bytes pending_;  // framed records not yet appended (a batch, if batching)
  std::vector<WalIndexEntry> staged_;  // pending_'s records, offsets as landed
  std::uint64_t last_sync_append_done_ns_ = 0;
};

// ---- sharded deployments (DESIGN.md Sect. 11) ---------------------------------
//
// A shard ROOT is a directory holding shard.0 .. shard.<N-1>, each a
// complete store directory of its own: own HMAC key, own generations, own
// LOCK. Shards are independent scheme instances partitioned by user id
// (global id = local id * N + shard); the only cross-shard invariant is
// the EPOCH — after recovery every shard sits at the same period. A crash
// between the two phases of a cross-shard new-period leaves some shards
// one period ahead; since that barrier was never acknowledged, open can
// roll the lagging shards forward to the maximum (each roll is an
// ordinary durable new-period), which is what open_shard_set does.

/// "shard.<i>" — the root-relative directory of shard i.
std::string shard_dir_name(std::size_t shard);

/// True when `dir` is a shard root (contains a shard.0 subdirectory).
/// Plain stores carry store.key at the top level instead, so the two
/// layouts are distinguishable without configuration.
bool is_shard_root(FileIo& io, const std::string& dir);

/// Number of contiguous shard.<i> subdirectories starting at shard.0.
std::size_t count_shards(FileIo& io, const std::string& dir);

/// What open_shard_set found and did.
struct ShardSetReport {
  std::size_t shards = 0;
  std::uint64_t epoch = 0;         // common period every shard landed on
  std::size_t rolled_forward = 0;  // new-period rolls issued to equalize
  std::vector<RecoveryReport> recoveries;  // per-shard open() reports
};

/// Creates a shard root with one store per manager (`managers[i]` becomes
/// shard i). All shards durable when this returns.
std::vector<StateStore> create_shard_set(FileIo& io, const std::string& root,
                                         std::vector<SecurityManager> managers,
                                         Rng& rng, StoreOptions opts = {});

/// Multi-instance recovery entry point: opens every shard (taking every
/// LOCK — a StoreLockedError on any shard unwinds the ones already
/// opened), then equalizes the epoch by rolling lagging shards forward to
/// the maximum period with `rng`. Throws DecodeError when `root` holds no
/// shard.0.
std::vector<StateStore> open_shard_set(FileIo& io, const std::string& root,
                                       Rng& rng, StoreOptions opts = {},
                                       ShardSetReport* report = nullptr);

/// File-system check for a store directory. In check mode (repair = false)
/// nothing is written and `ok` reports whether the store is pristine: a
/// valid key file, exactly one generation, a clean WAL, no stale files.
/// With repair = true the store is opened (which truncates torn tails and
/// removes stale files) and `ok` reports whether it is usable afterwards.
struct FsckReport {
  bool ok = false;
  bool repaired = false;       // repair mode actually changed something
  bool unrecoverable = false;  // no valid snapshot survives
  std::uint64_t generation = 0;
  std::uint64_t period = 0;          // manager period after WAL replay
  std::size_t wal_records = 0;       // valid records in the live WAL
  std::size_t torn_tail_bytes = 0;   // trailing bytes failing validation
  std::size_t stale_files = 0;       // tmp / old-generation leftovers
  std::vector<std::string> notes;    // human-readable findings
};

FsckReport fsck_store(FileIo& io, const std::string& dir, bool repair);

// ---- replication helpers (DESIGN.md Sect. 12) ----------------------------------

/// Copies a store directory (plain store or shard root) from `src` to the
/// same path under `dst`, skipping LOCK files — the bootstrap step that
/// hands a follower the primary's HMAC keys and chain history. The source
/// must be quiescent (no live daemon writing it).
void clone_store_files(FileIo& src, FileIo& dst, const std::string& dir);

/// Read-only WAL inspection for replica comparison (dfky_fsck --replica).
/// Unlike fsck_store this exposes the raw validated frame bytes so two
/// replicas of one shard can be compared for prefix compatibility.
struct WalInspection {
  bool ok = false;  // a valid snapshot + WAL header were found
  std::uint64_t generation = 0;
  std::uint64_t period = 0;     // manager period after replaying the WAL
  std::size_t records = 0;      // chain-valid records in the live WAL
  std::size_t frame_bytes = 0;  // bytes of those frames (header excluded)
  std::string chain_head_hex;   // tag of the last valid record (or seed)
  Bytes frames;                 // the validated frame bytes themselves
  std::vector<std::string> notes;
};

WalInspection inspect_store_wal(FileIo& io, const std::string& dir);

}  // namespace dfky
