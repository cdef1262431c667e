// dfky_fsck — integrity checker for a deployment: a shard root written by
// `dfky_cli init` (DESIGN.md Sect. 9, 11).
//
//   dfky_fsck <store-dir>            check only; the store is not touched
//   dfky_fsck <store-dir> --repair   truncate torn WAL tails, drop invalid
//                                    snapshots' leftovers, remove stale files
//   dfky_fsck --replica <dirA> <dirB>
//                                    compare two replicas of the same
//                                    deployment, shard by shard: per-replica
//                                    WAL length and chain head; exit 1 when
//                                    two WALs of the same generation are NOT
//                                    prefix-related (the streams diverged —
//                                    one replica must be re-seeded) or when
//                                    a WAL header needs repair (compared as
//                                    the empty log the next open starts), 0
//                                    when one replica merely lags the other
//
// A check and --replica both print fsck_store's read-only check, the same
// read StateStore::open recovers with: a check reports what the next open
// repairs, and --replica compares the frames that read validated.
//
// Every shard (shard.0, shard.1, ...) is checked, the per-shard reports are
// printed, and the epoch spread is summarized (a spread of one period is the
// normal footprint of a crash between the two phases of a cross-shard
// new-period; the daemon equalizes it at the next open). The exit status is
// the worst across the shards. A directory that is not a shard root is
// refused with exit 2.
//
// Exit status: 0 the store is usable (check mode: pristine; repair mode:
// recovered), 1 findings that repair could fix, 2 unrecoverable (no valid
// snapshot survives — restore from backup) or not a deployment.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "store/store.h"

using namespace dfky;

namespace {

void usage(std::FILE* to) {
  std::fputs(
      "usage: dfky_fsck <store-dir> [--repair]\n"
      "       dfky_fsck --replica <dirA> <dirB>\n",
      to);
}

void print_report(const std::string& dir, const FsckReport& r) {
  std::printf("%s: %s\n", dir.c_str(),
              r.unrecoverable ? "UNRECOVERABLE"
              : r.ok          ? (r.repaired ? "recovered" : "clean")
                              : "needs repair");
  if (!r.unrecoverable) {
    std::printf("  generation:     %llu\n",
                static_cast<unsigned long long>(r.generation));
    std::printf("  period:         %llu\n",
                static_cast<unsigned long long>(r.period));
    std::printf("  wal records:    %zu\n", r.wal_records);
    std::printf("  torn tail:      %zu byte(s)\n", r.torn_tail_bytes);
    std::printf("  stale files:    %zu\n", r.stale_files);
  }
  for (const std::string& note : r.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
}

int report_status(const FsckReport& r) {
  if (r.unrecoverable) return 2;
  return r.ok ? 0 : 1;
}

/// Checks every shard of a shard root; exit status is the worst shard's.
int fsck_shard_set(FileIo& io, const std::string& dir, bool repair) {
  const std::size_t n = count_shards(io, dir);
  std::printf("%s: shard set with %zu shard(s)\n", dir.c_str(), n);
  int worst = 0;
  std::uint64_t min_period = UINT64_MAX, max_period = 0;
  bool have_periods = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string shard_dir = dir + "/" + shard_dir_name(i);
    FsckReport r;
    try {
      r = fsck_store(io, shard_dir, repair);
    } catch (const Error& e) {
      std::fprintf(stderr, "dfky_fsck: %s: %s\n", shard_dir.c_str(), e.what());
      worst = 2;
      continue;
    }
    print_report(shard_dir, r);
    worst = std::max(worst, report_status(r));
    if (!r.unrecoverable) {
      min_period = std::min(min_period, r.period);
      max_period = std::max(max_period, r.period);
      have_periods = true;
    }
  }
  if (have_periods) {
    if (min_period == max_period) {
      std::printf("%s: all shards at period %llu\n", dir.c_str(),
                  static_cast<unsigned long long>(max_period));
    } else {
      std::printf(
          "%s: epoch spread %llu..%llu — a torn cross-shard new-period; "
          "the next daemon open rolls the laggards forward\n",
          dir.c_str(), static_cast<unsigned long long>(min_period),
          static_cast<unsigned long long>(max_period));
    }
  }
  if (worst == 2) {
    std::printf("  a shard has no valid snapshot; restore from backup\n");
  } else if (worst == 1) {
    std::printf("  run `dfky_fsck %s --repair` to fix\n", dir.c_str());
  }
  return worst;
}

// ---- replica comparison (--replica) -------------------------------------------

/// One replica's log, printed from fsck_store's check-mode read. A WAL
/// whose header does not match the snapshot is reported as the plain check
/// reports it, and its log as the empty one the next open starts.
void print_replica(const std::string& dir, const FsckReport& r) {
  const std::string wal =
      std::string(StateStore::kWalPrefix) + std::to_string(r.generation);
  if (r.unrecoverable) {
    std::printf("%s: UNRECOVERABLE (no valid snapshot)\n", dir.c_str());
    std::printf("  note: %s\n", r.notes.back().c_str());
    return;
  }
  const bool bad_header = r.wal == FsckReport::Wal::kBadHeader;
  std::printf("%s: %sgeneration %llu, period %llu, %zu WAL record(s) "
              "(%zu frame byte(s))\n",
              dir.c_str(), bad_header ? "needs repair; " : "",
              static_cast<unsigned long long>(r.generation),
              static_cast<unsigned long long>(r.period), r.wal_records,
              r.frames.size());
  std::printf("  chain head:     %.16s...\n", r.chain_head_hex.c_str());
  if (r.wal == FsckReport::Wal::kMissing) {
    std::printf("  note: %s missing\n", wal.c_str());
  } else if (bad_header) {
    std::printf("  note: %s: bad header; the next open starts an empty log\n",
                wal.c_str());
  } else if (r.torn_tail_bytes > 0) {
    std::printf("  note: %s: %zu torn tail byte(s)\n", wal.c_str(),
                r.torn_tail_bytes);
  }
}

/// Compares the logs of a readable store pair: 0 equal, or one a prefix of
/// the other on the same generation; 1 forked.
int compare_logs(const std::string& a, const FsckReport& wa,
                 const std::string& b, const FsckReport& wb) {
  if (wa.generation != wb.generation) {
    // Different snapshot generations never share a WAL chain; the lagging
    // replica is waiting for a snapshot resync (repl-snap), not diverged.
    std::printf(
        "  replicas are on different generations (%llu vs %llu); the "
        "lagging one resyncs via snapshot shipping\n",
        static_cast<unsigned long long>(wa.generation),
        static_cast<unsigned long long>(wb.generation));
    return 0;
  }
  const FsckReport& shorter = wa.wal_records <= wb.wal_records ? wa : wb;
  const FsckReport& longer = wa.wal_records <= wb.wal_records ? wb : wa;
  const bool prefix =
      std::equal(shorter.frames.begin(), shorter.frames.end(),
                 longer.frames.begin());
  if (!prefix) {
    std::printf(
        "  DIVERGED: same generation but the shorter WAL (%zu record(s)) "
        "is not a prefix of the longer (%zu record(s)) — the replicas "
        "forked; re-seed one from the other\n",
        shorter.wal_records, longer.wal_records);
    return 1;
  }
  if (wa.wal_records == wb.wal_records) {
    std::printf("  replicas are identical (chain head %.16s...)\n",
                wa.chain_head_hex.c_str());
  } else {
    std::printf("  replicas agree; %s lags by %zu record(s)\n",
                (wa.wal_records < wb.wal_records ? a : b).c_str(),
                longer.wal_records - shorter.wal_records);
  }
  return 0;
}

/// Compares one store pair. Exit contribution: 0 replicas agree (equal, or
/// one lags the other on the same stream), 1 diverged or a WAL header needs
/// repair, 2 unreadable.
int compare_replica_pair(FileIo& io, const std::string& a,
                         const std::string& b) {
  FsckReport wa, wb;
  try {
    wa = fsck_store(io, a, /*repair=*/false);
    wb = fsck_store(io, b, /*repair=*/false);
  } catch (const Error& e) {
    std::fprintf(stderr, "dfky_fsck: %s\n", e.what());
    return 2;
  }
  print_replica(a, wa);
  print_replica(b, wb);
  if (wa.unrecoverable || wb.unrecoverable) return 2;
  const bool needs_repair = wa.wal == FsckReport::Wal::kBadHeader ||
                            wb.wal == FsckReport::Wal::kBadHeader;
  return std::max(compare_logs(a, wa, b, wb), needs_repair ? 1 : 0);
}

int cmd_replica(FileIo& io, const std::string& a, const std::string& b) {
  const std::size_t na = count_shards(io, a);
  const std::size_t nb = count_shards(io, b);
  if (na != nb) {
    std::fprintf(stderr,
                 "dfky_fsck: --replica: shard counts differ (%zu vs %zu)\n",
                 na, nb);
    return 2;
  }
  std::printf("comparing %zu shard(s)\n", na);
  int worst = 0;
  for (std::size_t i = 0; i < na; ++i) {
    worst = std::max(
        worst, compare_replica_pair(io, a + "/" + shard_dir_name(i),
                                    b + "/" + shard_dir_name(i)));
  }
  if (worst == 0) {
    std::printf("%s and %s: replicas agree on every shard\n", a.c_str(),
                b.c_str());
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bool repair = false;
  bool replica = false;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--repair") {
      repair = true;
    } else if (a == "--replica") {
      replica = true;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "dfky_fsck: unknown flag '%s'\n", a.c_str());
      usage(stderr);
      return 2;
    } else {
      dirs.push_back(a);
    }
  }
  if (replica && (repair || dirs.size() != 2)) {
    std::fprintf(stderr,
                 "dfky_fsck: --replica takes exactly two store directories "
                 "(and no --repair)\n");
    usage(stderr);
    return 2;
  }
  if (!replica && dirs.size() != 1) {
    usage(stderr);
    return 2;
  }
  RealFileIo io;
  try {
    return replica ? cmd_replica(io, dirs[0], dirs[1])
                   : fsck_shard_set(io, dirs[0], repair);
  } catch (const Error& e) {  // count_shards: not a shard root
    std::fprintf(stderr, "dfky_fsck: %s\n", e.what());
    return 2;
  }
}
