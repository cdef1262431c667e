// File-system abstraction under the durable state store (DESIGN.md Sect. 9).
//
// The store's crash-consistency argument only mentions these primitives, so
// one interface serves three implementations:
//
//   * RealFileIo  — POSIX files; what dfky_cli and dfky_fsck run on.
//   * MemFileIo   — an in-memory file system that MODELS DURABILITY: every
//     write lands in a volatile view, fsync_file promotes a file's content
//     to the durable view, fsync_dir promotes a directory's entry table
//     (creates, renames, removals). crash() throws away everything that was
//     never promoted — exactly what a power cut does to a kernel page
//     cache — so tests can assert what actually survives.
//   * FaultyFileIo — wraps a MemFileIo and injects crash points, torn
//     writes, bit flips and short reads deterministically from a seed
//     (the file-system sibling of the fault matrix's LineFilter).
//
// Paths use '/' separators; directory durability is tracked per dirname.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "rng/chacha_rng.h"

namespace dfky {

/// An injected power cut: the fault plan decided the process dies at this
/// I/O boundary. Distinct from Error so crash-matrix harnesses can tell a
/// simulated crash apart from a real store bug.
class CrashPoint : public Error {
 public:
  explicit CrashPoint(const std::string& what) : Error(what) {}
};

/// A real I/O primitive failed (ENOSPC, EIO, permissions...).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

class FileIo {
 public:
  virtual ~FileIo() = default;

  virtual bool exists(const std::string& path) const = 0;
  virtual bool is_dir(const std::string& path) const = 0;
  /// Basenames of regular files in `dir`, sorted. Throws IoError if `dir`
  /// does not exist.
  virtual std::vector<std::string> list(const std::string& dir) const = 0;
  /// Whole-file read. Throws IoError if missing.
  virtual Bytes read(const std::string& path) const = 0;
  /// Up to `len` bytes starting at byte `offset` (fewer when the file ends
  /// first, none past its end). Throws IoError if missing.
  virtual Bytes read_range(const std::string& path, std::size_t offset,
                           std::size_t len) const = 0;

  /// Create-or-truncate write of the whole file (no durability implied).
  virtual void write(const std::string& path, BytesView data) = 0;
  /// Append to the end of the file, creating it if absent.
  virtual void append(const std::string& path, BytesView data) = 0;
  /// Shrink the file to `size` bytes. Throws IoError if missing or growing.
  virtual void truncate(const std::string& path, std::size_t size) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual void remove(const std::string& path) = 0;
  virtual void mkdir(const std::string& path) = 0;

  /// Durability barriers: fsync_file makes a file's *content* durable,
  /// fsync_dir makes a directory's *entries* durable. Both are required
  /// for a freshly created file to survive a crash.
  virtual void fsync_file(const std::string& path) = 0;
  virtual void fsync_dir(const std::string& dir) = 0;

  /// Advisory exclusive lock on `path`, created if absent. On success the
  /// holder's pid is recorded in the file and the lock is held until
  /// unlock() or process death. Returns false when someone else holds it,
  /// reporting that holder's recorded pid via `holder` (0 if unreadable).
  /// The lock file itself is never unlinked — removing it would let a
  /// third process acquire a lock on a fresh inode while the old one is
  /// still held.
  virtual bool lock(const std::string& path, std::uint64_t* holder) = 0;
  /// Releases a lock() taken through this instance; no-op otherwise.
  virtual void unlock(const std::string& path) = 0;
};

/// "" for paths with no '/', otherwise everything before the last '/'.
std::string dirname_of(const std::string& path);

// ---- POSIX --------------------------------------------------------------------

class RealFileIo final : public FileIo {
 public:
  bool exists(const std::string& path) const override;
  bool is_dir(const std::string& path) const override;
  std::vector<std::string> list(const std::string& dir) const override;
  Bytes read(const std::string& path) const override;
  Bytes read_range(const std::string& path, std::size_t offset,
                   std::size_t len) const override;
  void write(const std::string& path, BytesView data) override;
  void append(const std::string& path, BytesView data) override;
  void truncate(const std::string& path, std::size_t size) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void mkdir(const std::string& path) override;
  void fsync_file(const std::string& path) override;
  void fsync_dir(const std::string& dir) override;
  bool lock(const std::string& path, std::uint64_t* holder) override;
  void unlock(const std::string& path) override;

  ~RealFileIo() override;

 private:
  std::map<std::string, int> lock_fds_;  // held flocks, path -> open fd
};

// ---- in-memory durability model -----------------------------------------------

class MemFileIo final : public FileIo {
 public:
  MemFileIo() = default;
  /// Deep copy of both namespaces (tests fork a filesystem to model an
  /// independent replica or a post-crash reopen). Thread-safe on `other`;
  /// the new instance starts unshared.
  MemFileIo(const MemFileIo& other);
  MemFileIo& operator=(const MemFileIo& other);

  bool exists(const std::string& path) const override;
  bool is_dir(const std::string& path) const override;
  std::vector<std::string> list(const std::string& dir) const override;
  Bytes read(const std::string& path) const override;
  Bytes read_range(const std::string& path, std::size_t offset,
                   std::size_t len) const override;
  void write(const std::string& path, BytesView data) override;
  void append(const std::string& path, BytesView data) override;
  void truncate(const std::string& path, std::size_t size) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void mkdir(const std::string& path) override;
  void fsync_file(const std::string& path) override;
  void fsync_dir(const std::string& dir) override;
  bool lock(const std::string& path, std::uint64_t* holder) override;
  void unlock(const std::string& path) override;

  /// Simulated power cut: the live view is replaced by the durable view.
  /// Files whose directory entry was never fsync_dir'ed vanish; files whose
  /// content was never fsync_file'd revert to their last synced content.
  /// Held locks are dropped — a dead process holds nothing.
  void crash();

  /// Splices bytes into a file's DURABLE content directly — the "torn
  /// append" a crash mid-write leaves on a physical platter. Only the
  /// fault injector should call this.
  void inject_durable_append(const std::string& path, BytesView data);

 private:
  struct Inode {
    Bytes live;
    Bytes durable;
  };

  Inode& live_inode(const std::string& path);

  /// One MemFileIo is shared by every shard of a set, so committer,
  /// replication-sender and client threads reach the same maps through
  /// different files; RealFileIo gets this isolation from the kernel.
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> locks_;  // path -> holder pid
  std::map<std::string, Inode> files_;       // live namespace
  std::set<std::string> live_dirs_{{""}};    // "" is the cwd root
  std::map<std::string, Inode> durable_ns_;  // entries that survive a crash
  std::set<std::string> durable_dirs_{{""}};
};

// ---- fault injector ------------------------------------------------------------

/// Knobs of the storage fault model. Mirrors FaultPlan (broadcast): every
/// decision is drawn from a ChaCha20 PRG seeded by the plan, so two runs
/// with the same seed and op sequence inject identical faults.
struct FilePlan {
  std::uint64_t seed = 1;
  /// Crash on the Nth mutating op (0-based, counting write/append/truncate/
  /// rename/remove/mkdir/fsync_file/fsync_dir). The op is torn mid-flight —
  /// for appends a seeded prefix of the data reaches the durable medium
  /// (the classic torn WAL tail); every other op simply never happens —
  /// and CrashPoint is thrown. nullopt = never crash.
  std::optional<std::uint64_t> crash_at;
  double bitflip_read_prob = 0.0;  // one bit of a read() flipped
  double short_read_prob = 0.0;    // read() loses a seeded-length tail
  /// Every fsync_file sleeps this long before completing — a stalled disk,
  /// not a fault. Used by the tracing tests to force a request over the
  /// slow-request threshold deterministically.
  std::uint64_t fsync_delay_ns = 0;
};

struct FileFaultCounters {
  std::uint64_t mutating_ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t crashes = 0;
  std::uint64_t torn_bytes = 0;  // bytes of the crashed append that survived
  std::uint64_t bitflips = 0;
  std::uint64_t short_reads = 0;

  bool operator==(const FileFaultCounters&) const = default;
};

class FaultyFileIo final : public FileIo {
 public:
  /// Wraps a MemFileIo (crash modeling needs the durable/volatile split).
  FaultyFileIo(MemFileIo& fs, FilePlan plan);

  bool exists(const std::string& path) const override;
  bool is_dir(const std::string& path) const override;
  std::vector<std::string> list(const std::string& dir) const override;
  Bytes read(const std::string& path) const override;
  Bytes read_range(const std::string& path, std::size_t offset,
                   std::size_t len) const override;
  void write(const std::string& path, BytesView data) override;
  void append(const std::string& path, BytesView data) override;
  void truncate(const std::string& path, std::size_t size) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void mkdir(const std::string& path) override;
  void fsync_file(const std::string& path) override;
  void fsync_dir(const std::string& dir) override;
  bool lock(const std::string& path, std::uint64_t* holder) override;
  void unlock(const std::string& path) override;

  FilePlan plan() const;
  FileFaultCounters fault_counters() const;

  /// Replaces the fault plan mid-run; the op counter keeps running, so a
  /// caller arms a relative crash with
  /// `crash_at = fault_counters().mutating_ops + d`. The cluster simulator
  /// uses this to detonate inside a specific window (e.g. the epoch
  /// barrier's phase-2 appends) after a fault-free warm-up.
  void set_plan(FilePlan plan);

 private:
  /// Applies the plan's bit flip and short read to a read's data. Caller
  /// holds mu_.
  void fault_read(Bytes& data) const;
  /// Counts the op; throws CrashPoint when the plan says so. `torn_target`
  /// non-null marks ops whose in-flight data can partially reach the
  /// platter (appends/writes).
  void mutating_op(const char* op, const std::string& path,
                   BytesView torn_data, const std::string* torn_target);

  MemFileIo& fs_;
  /// Committer, sender and client threads all funnel through one injector
  /// in the simulator; the plan/PRG/counters must move in lockstep.
  mutable std::mutex mu_;
  FilePlan plan_;
  mutable ChaChaRng rng_;
  mutable FileFaultCounters counters_;
};

}  // namespace dfky
