// E11: Durable state store cost (DESIGN.md Sect. 9).
// Claims: a mutation's durability overhead is one WAL record append + fsync
// (independent of population size n); snapshot rotation is O(state), and
// under the default rotation rule its amortized share of a record is
// independent of n too (under a fixed 64-record schedule it grows with n);
// recovery replays the WAL suffix linearly, and a store at its rotation
// threshold opens in time bounded by the rule. Measured both against the
// real filesystem (fsync included) and the in-memory FileIo (framing/HMAC
// cost in isolation).
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/manager.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

using namespace dfky;

namespace {

benchjson::Report g_report("store");

constexpr std::size_t kV = 8;

SystemParams make_params() {
  ChaChaRng rng(42);
  return SystemParams::create(Group(GroupParams::named(ParamId::kSec512)), kV,
                              rng);
}

StoreOptions no_rotation() {
  StoreOptions opts;
  opts.snapshot_every = std::size_t{1} << 30;  // isolate what each table times
  return opts;
}

void remove_store_dir(FileIo& io, const std::string& dir) {
  if (!io.is_dir(dir)) return;
  for (const std::string& name : io.list(dir)) io.remove(dir + "/" + name);
  ::rmdir(dir.c_str());
}

// E11a: durable add_user — WAL append + fsync on a real filesystem vs the
// in-memory model. The gap is the price of the durable-before-ack contract.
void mutation_table() {
  std::printf("# E11a: durable add_user latency (v = %zu, 512-bit group)\n",
              kV);
  std::printf("%10s %12s %12s %10s\n", "backend", "median-us", "p95-us",
              "rec-bytes");
  const std::size_t samples = benchjson::smoke() ? 4 : 32;
  const SystemParams sp = make_params();

  const auto run = [&](FileIo& io, const std::string& dir,
                       const std::string& op, const char* label) {
    ChaChaRng rng(1);
    remove_store_dir(io, dir);
    StateStore store =
        StateStore::create(io, dir, SecurityManager(sp, rng), rng,
                           no_rotation());
    const std::size_t wal0 =
        io.read(dir + "/wal.0").size();
    const benchjson::Timing t =
        benchjson::time_samples(samples, [&] { store.add_user(rng); });
    const std::size_t per_record =
        (io.read(dir + "/wal.0").size() - wal0) / samples;
    g_report.add({op, 0, kV, t.median_ns, t.p95_ns, per_record, t.samples});
    std::printf("%10s %12.1f %12.1f %10zu\n", label,
                static_cast<double>(t.median_ns) / 1e3,
                static_cast<double>(t.p95_ns) / 1e3, per_record);
    remove_store_dir(io, dir);
  };

  MemFileIo mem;
  run(mem, "sys", "add_user_mem", "mem");
  char tmpl[] = "/tmp/dfky_bench_store_XXXXXX";
  if (::mkdtemp(tmpl) != nullptr) {
    RealFileIo real;
    run(real, std::string(tmpl) + "/sys", "add_user_disk", "disk");
    ::rmdir(tmpl);
  } else {
    std::printf("# (mkdtemp failed; skipping the on-disk row)\n");
  }
}

// E11b: snapshot rotation vs population n — write-temp/fsync/rename of the
// full state plus a fresh WAL header.
void snapshot_table() {
  std::printf("\n# E11b: snapshot rotation vs population n (in-memory io)\n");
  std::printf("%8s %12s %12s %12s\n", "n", "median-us", "p95-us",
              "snap-bytes");
  const std::size_t samples = benchjson::smoke() ? 3 : 9;
  const std::vector<std::size_t> ns =
      benchjson::smoke() ? std::vector<std::size_t>{8, 32}
                         : std::vector<std::size_t>{16, 64, 256};
  const SystemParams sp = make_params();
  for (std::size_t n : ns) {
    ChaChaRng rng(2);
    MemFileIo io;
    StateStore store =
        StateStore::create(io, "sys", SecurityManager(sp, rng), rng,
                           no_rotation());
    for (std::size_t i = 0; i < n; ++i) store.add_user(rng);
    const benchjson::Timing t =
        benchjson::time_samples(samples, [&] { store.snapshot(); });
    const std::size_t bytes =
        io.read("sys/" + (StateStore::kSnapPrefix +
                          std::to_string(store.generation())))
            .size();
    g_report.add({"snapshot", n, kV, t.median_ns, t.p95_ns, bytes,
                  t.samples});
    std::printf("%8zu %12.1f %12.1f %12zu\n", n,
                static_cast<double>(t.median_ns) / 1e3,
                static_cast<double>(t.p95_ns) / 1e3, bytes);
  }
}

/// `n` users issued before the store exists (a bare manager, no WAL).
Bytes populated_state(const SystemParams& sp, std::size_t n) {
  ChaChaRng rng(4);
  SecurityManager mgr(sp, rng);
  for (std::size_t i = 0; i < n; ++i) mgr.add_user(rng);
  return mgr.save_state();
}

/// Batches of 16 add-users (the daemon's group commit) on a store created
/// around `state`, until `rotations` rotations have happened. Each sync that
/// rotated is timed whole; the total over the records run is the amortized
/// rotation cost per record.
struct RotationRun {
  double ns_per_record = 0;
  std::size_t records = 0;
  std::size_t snapshot_bytes = 0;
};

RotationRun rotation_run(const Bytes& state, StoreOptions opts,
                         std::size_t rotations) {
  ChaChaRng rng(5);
  MemFileIo io;
  StateStore store = StateStore::create(
      io, "sys", SecurityManager::restore_state(state), rng, opts);
  RotationRun r;
  r.snapshot_bytes = store.snapshot_bytes();
  store.set_batching(true);
  std::uint64_t rotation_ns = 0;
  while (store.generation() < rotations) {
    for (int i = 0; i < 16; ++i) store.add_user(rng);
    r.records += 16;
    const std::uint64_t gen = store.generation();
    const auto t0 = std::chrono::steady_clock::now();
    store.sync();
    const auto t1 = std::chrono::steady_clock::now();
    if (store.generation() != gen) {
      rotation_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
  }
  r.ns_per_record = static_cast<double>(rotation_ns) /
                    static_cast<double>(r.records);
  return r;
}

// E11b (amortized): rotation cost per record vs population n, under the
// fixed 64-record schedule and under the default size-proportional rule.
// One full rotation cycle each (four for the count rule); repeated, with
// the median and the worst repetition reported.
void amortized_rotation_table() {
  std::printf("\n# E11b: amortized rotation cost per add-user record "
              "(in-memory io, batches of 16)\n");
  std::printf("%8s %10s %12s %12s %10s %12s\n", "n", "rule",
              "median-us/rec", "max-us/rec", "records", "snap-bytes");
  const std::size_t reps = benchjson::smoke() ? 1 : 3;
  const std::vector<std::size_t> ns =
      benchjson::smoke() ? std::vector<std::size_t>{256, 1024}
                         : std::vector<std::size_t>{1000, 10000, 50000};
  const SystemParams sp = make_params();
  StoreOptions count64;
  count64.snapshot_every = 64;
  for (const std::size_t n : ns) {
    const Bytes state = populated_state(sp, n);
    for (const bool by_count : {true, false}) {
      std::vector<double> per_record;
      RotationRun last;
      for (std::size_t i = 0; i < reps; ++i) {
        last = by_count ? rotation_run(state, count64, 4)
                        : rotation_run(state, StoreOptions{}, 1);
        per_record.push_back(last.ns_per_record);
      }
      std::sort(per_record.begin(), per_record.end());
      const double median = per_record[per_record.size() / 2];
      const char* rule = by_count ? "count64" : "default";
      g_report.add({std::string("rotation_per_record_") + rule, n, kV,
                    static_cast<std::uint64_t>(median),
                    static_cast<std::uint64_t>(per_record.back()),
                    last.snapshot_bytes, last.records});
      std::printf("%8zu %10s %12.2f %12.2f %10zu %12zu\n", n, rule,
                  median / 1e3, per_record.back() / 1e3, last.records,
                  last.snapshot_bytes);
    }
  }
}

// E11c: recovery — open() replaying k WAL records on top of the snapshot.
void recovery_table() {
  std::printf("\n# E11c: recovery (open + WAL replay) vs WAL length\n");
  std::printf("%8s %12s %12s %12s\n", "records", "median-us", "p95-us",
              "wal-bytes");
  const std::size_t samples = benchjson::smoke() ? 3 : 9;
  const std::vector<std::size_t> ks =
      benchjson::smoke() ? std::vector<std::size_t>{8, 32}
                         : std::vector<std::size_t>{16, 64, 256};
  const SystemParams sp = make_params();
  for (std::size_t k : ks) {
    ChaChaRng rng(3);
    MemFileIo io;
    {
      StateStore store =
          StateStore::create(io, "sys", SecurityManager(sp, rng), rng,
                             no_rotation());
      for (std::size_t i = 0; i < k; ++i) store.add_user(rng);
    }
    const std::size_t wal_bytes = io.read("sys/wal.0").size();
    const benchjson::Timing t = benchjson::time_samples(samples, [&] {
      const StateStore s = StateStore::open(io, "sys", no_rotation());
      if (s.wal_records() != k) std::abort();  // bench invariant
    });
    g_report.add({"recovery_open", k, kV, t.median_ns, t.p95_ns, wal_bytes,
                  t.samples});
    std::printf("%8zu %12.1f %12.1f %12zu\n", k,
                static_cast<double>(t.median_ns) / 1e3,
                static_cast<double>(t.p95_ns) / 1e3, wal_bytes);
  }
}

// E11c (threshold): open() of a store one op short of its next default-rule
// rotation — the longest WAL the rule leaves to replay. Add-users reach the
// bytes bound. Revokes in id order (every v of them roll a new period)
// reach the replay bound once the snapshot outweighs their records.
void threshold_recovery_table() {
  std::printf("\n# E11c: open() at the rotation threshold (default rule)\n");
  std::printf("%8s %8s %8s %12s %12s %12s %12s\n", "n", "ops", "records",
              "replay-wt", "median-us", "p95-us", "wal-bytes");
  const std::size_t samples = benchjson::smoke() ? 3 : 9;
  const std::vector<std::size_t> ns =
      benchjson::smoke() ? std::vector<std::size_t>{256}
                         : std::vector<std::size_t>{1000, 10000};
  const SystemParams sp = make_params();
  for (const std::size_t n : ns) {
    const Bytes state = populated_state(sp, n);
    for (const bool revokes : {false, true}) {
      // Count the ops to the first rotation, then replay all but the last
      // one on a fresh store (same seeds, same records).
      const auto fill = [&](MemFileIo& io, std::size_t max_ops) {
        ChaChaRng rng(6);
        StateStore store = StateStore::create(
            io, "sys", SecurityManager::restore_state(state), rng);
        std::uint64_t victim = 0;
        std::size_t ops = 0;
        while (ops < max_ops && store.generation() == 0) {
          if (revokes) {
            const std::uint64_t ids[] = {victim++};
            store.remove_users(ids, rng);
          } else {
            store.add_user(rng);
          }
          ++ops;
        }
        return ops;
      };
      MemFileIo probe;
      const std::size_t to_rotation = fill(probe, SIZE_MAX);
      MemFileIo io;
      fill(io, to_rotation - 1);
      std::size_t records = 0, weight = 0;
      const benchjson::Timing t = benchjson::time_samples(samples, [&] {
        const StateStore s = StateStore::open(io, "sys");
        records = s.wal_records();
        weight = s.replay_weight();
      });
      const std::size_t wal_bytes = io.read("sys/wal.0").size();
      const char* op =
          revokes ? "open_threshold_revoke" : "open_threshold_add";
      g_report.add({op, n, kV, t.median_ns, t.p95_ns, wal_bytes, t.samples});
      std::printf("%8zu %8s %8zu %12zu %12.1f %12.1f %12zu\n", n,
                  revokes ? "revoke" : "add", records, weight,
                  static_cast<double>(t.median_ns) / 1e3,
                  static_cast<double>(t.p95_ns) / 1e3, wal_bytes);
    }
  }
}

}  // namespace

int main() {
  std::printf("=== E11: Durable state store ===\n\n");
  mutation_table();
  snapshot_table();
  amortized_rotation_table();
  recovery_table();
  threshold_recovery_table();
  return g_report.write() ? 0 : 1;
}
