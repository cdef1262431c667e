// The crash-consistent state store: WAL framing, snapshot rotation,
// recovery, the full crash-point matrix, and dfky_fsck semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/receiver.h"
#include "core/scheme.h"
#include "obs/metrics.h"
#include "rng/chacha_rng.h"
#include "store/store.h"
#include "test_util.h"

namespace dfky {
namespace {

/// The deterministic mutation script every store test runs: adds, a
/// removal, a proactive new-period, and a batch removal (v = 2). User 0
/// (added before the store exists) is never revoked.
constexpr std::uint64_t kScriptSeed = 777;

SecurityManager script_base_manager(ChaChaRng& rng,
                                    UserKey* survivor = nullptr) {
  SecurityManager mgr(test::test_params(2, /*seed=*/kScriptSeed), rng);
  const auto u0 = mgr.add_user(rng);  // user 0: the survivor
  if (survivor) *survivor = u0.key;
  return mgr;
}

/// Runs the script against any object exposing the mutating quartet
/// (StateStore or SecurityManager), calling `checkpoint` after each op. A
/// lambda, so fixtures and crash matrices can take a script as a value.
constexpr auto run_script = [](auto& ops, ChaChaRng& rng, auto&& checkpoint) {
  ops.add_user(rng);  // user 1
  checkpoint();
  ops.add_user(rng);  // user 2
  checkpoint();
  const std::uint64_t kill1[] = {1};
  ops.remove_users(kill1, rng);
  checkpoint();
  ops.new_period(rng);
  checkpoint();
  ops.add_user(rng);  // user 3
  checkpoint();
  const std::uint64_t kill2[] = {2, 3};  // saturates period 1 (v = 2)
  ops.remove_users(kill2, rng);
  checkpoint();
};

/// Long enough for the default rule's first rotation: 70 adds put 64+
/// records in the WAL, whose bytes then outweigh the one-user snapshot
/// (add-users weigh nothing, so the trigger can only be "bytes"). A
/// revoke and a new-period follow in the next generation.
constexpr auto run_long_script = [](auto& ops, ChaChaRng& rng,
                                    auto&& checkpoint) {
  for (int i = 0; i < 70; ++i) {
    ops.add_user(rng);  // users 1..70
    checkpoint();
  }
  const std::uint64_t kill[] = {5};
  ops.remove_users(kill, rng);
  checkpoint();
  ops.new_period(rng);
  checkpoint();
};

struct ScriptFixture {
  MemFileIo base_fs;     // state right after create(), all durable
  Bytes initial_state;   // manager state the store was created around
  UserKey survivor_key;  // user 0's key (period 0)
  std::vector<Bytes> op_states;      // manager state after each script op
  std::vector<Bytes> record_states;  // ... after each mutation record
  std::vector<std::size_t> records_after_op;  // prefix record count per op
  std::uint64_t total_io_ops = 0;  // mutating I/O ops of a full faulty run
  StoreOptions opts;
};

template <typename Script>
ScriptFixture build_fixture(StoreOptions opts, Script script) {
  ScriptFixture f;
  f.opts = opts;

  // Clean reference run, capturing the manager state after every op.
  {
    ChaChaRng rng(kScriptSeed);
    SecurityManager mgr = script_base_manager(rng, &f.survivor_key);
    f.initial_state = mgr.save_state();
    ChaChaRng key_rng(1);
    StateStore store = StateStore::create(f.base_fs, "store", std::move(mgr),
                                          key_rng, f.opts);
    MemFileIo after_create = f.base_fs;  // fixture starts post-create
    script(store, rng, [&] {
      f.op_states.push_back(store.manager().save_state());
    });
    f.base_fs = after_create;
  }

  // Record-granular states: replay the script on a bare manager with
  // mutation recording on, snapshotting after every drained record.
  {
    SecurityManager mgr = SecurityManager::restore_state(f.initial_state);
    mgr.set_mutation_recording(true);
    SecurityManager shadow = SecurityManager::restore_state(f.initial_state);
    f.record_states.push_back(shadow.save_state());
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);  // burn the setup draws
    script(mgr, rng, [&] {
      for (const ManagerMutation& m : mgr.take_mutation_log()) {
        shadow.apply_mutation(m);
        f.record_states.push_back(shadow.save_state());
      }
      f.records_after_op.push_back(f.record_states.size() - 1);
    });
    // Replay really is byte-for-byte: the shadow tracked the original.
    for (std::size_t i = 0; i < f.op_states.size(); ++i) {
      EXPECT_EQ(f.record_states[f.records_after_op[i]], f.op_states[i])
          << "op " << i;
    }
  }

  // Count the I/O ops of one full faulty (but crash-free) run.
  {
    MemFileIo fs = f.base_fs;
    FaultyFileIo io(fs, FilePlan{});
    StateStore store = StateStore::open(io, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    script(store, rng, [] {});
    f.total_io_ops = io.fault_counters().mutating_ops;
  }
  return f;
}

const ScriptFixture& fixture() {
  static const ScriptFixture f = [] {
    StoreOptions opts;
    opts.snapshot_every = 3;  // force rotations mid-script
    return build_fixture(opts, run_script);
  }();
  return f;
}

/// Index of `state` in the record-granular state list, or npos.
std::size_t state_index(const ScriptFixture& f, const Bytes& state) {
  for (std::size_t i = 0; i < f.record_states.size(); ++i) {
    if (f.record_states[i] == state) return i;
  }
  return static_cast<std::size_t>(-1);
}

TEST(StateStore, CreateThenOpenRoundTrips) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  EXPECT_EQ(store.manager().save_state(), f.initial_state);
  EXPECT_EQ(store.generation(), 0u);
  EXPECT_EQ(store.wal_records(), 0u);
  const RecoveryReport& r = store.recovery_report();
  EXPECT_EQ(r.replayed_records, 0u);
  EXPECT_EQ(r.truncated_records, 0u);
  EXPECT_EQ(r.skipped_snapshots, 0u);
  EXPECT_EQ(r.stale_files_removed, 0u);
}

TEST(StateStore, EveryMutationIsDurableBeforeItReturns) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  std::size_t op = 0;
  StateStore store = StateStore::open(fs, "store", f.opts);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(store, rng, [&] {
    // Power cut immediately after the op acked. Everything must survive.
    MemFileIo cut = fs;
    cut.crash();
    StateStore recovered = StateStore::open(cut, "store", f.opts);
    EXPECT_EQ(recovered.manager().save_state(), f.op_states[op])
        << "op " << op;
    ++op;
  });
  ASSERT_EQ(op, f.op_states.size());
}

TEST(StateStore, SnapshotRotationLeavesExactlyOneGeneration) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(store, rng, [] {});
  EXPECT_GE(store.generation(), 1u);  // snapshot_every = 3 forced rotations
  const std::string snap =
      StateStore::kSnapPrefix + std::to_string(store.generation());
  const std::string wal =
      StateStore::kWalPrefix + std::to_string(store.generation());
  EXPECT_EQ(fs.list("store"),
            (std::vector<std::string>{StateStore::kLockFile, snap,
                                      StateStore::kKeyFile, wal}));

  store.snapshot();  // explicit rotation resets the WAL
  EXPECT_EQ(store.wal_records(), 0u);
  MemFileIo cut = fs;
  cut.crash();
  StateStore recovered = StateStore::open(cut, "store", f.opts);
  EXPECT_EQ(recovered.manager().save_state(), f.op_states.back());
  EXPECT_EQ(recovered.recovery_report().replayed_records, 0u);
}

TEST(StateStore, CreateRefusesAnExistingStore) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  ChaChaRng rng(5);
  SecurityManager mgr(test::test_params(2), rng);
  EXPECT_THROW(StateStore::create(fs, "store", std::move(mgr), rng, f.opts),
               ContractError);
}

TEST(StateStore, OpenRejectsMissingOrKeylessDirectory) {
  MemFileIo fs;
  EXPECT_THROW(StateStore::open(fs, "nowhere"), DecodeError);
  fs.mkdir("empty");
  EXPECT_THROW(StateStore::open(fs, "empty"), DecodeError);
}

TEST(StateStore, GarbageTailIsTruncatedAndReported) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  {
    StateStore store = StateStore::open(fs, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    store.add_user(rng);  // one real record in wal.0
  }
  fs.append("store/wal.0", Bytes(37, 0xEE));
  fs.fsync_file("store/wal.0");
  fs.fsync_dir("store");

  {
    StateStore recovered = StateStore::open(fs, "store", f.opts);
    EXPECT_EQ(recovered.manager().save_state(), f.op_states[0]);
    EXPECT_EQ(recovered.recovery_report().replayed_records, 1u);
    EXPECT_EQ(recovered.recovery_report().truncated_bytes, 37u);
    EXPECT_GE(recovered.recovery_report().truncated_records, 1u);
  }  // release the store lock: opens are exclusive
  // The truncation is itself durable: a second open is clean.
  StateStore again = StateStore::open(fs, "store", f.opts);
  EXPECT_EQ(again.recovery_report().truncated_bytes, 0u);
}

TEST(StateStore, BitFlipInWalTruncatesFromTheFlippedRecord) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  std::size_t first_end = 0;
  {
    StateStore store = StateStore::open(fs, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    store.add_user(rng);
    first_end = fs.read("store/wal.0").size();
    store.add_user(rng);
  }
  // Flip one payload bit inside the second record (frame header is 40
  // bytes: length + CRC + chain tag).
  Bytes wal = fs.read("store/wal.0");
  ASSERT_GT(wal.size(), first_end + 41);
  wal[first_end + 41] ^= 0x10;
  fs.write("store/wal.0", wal);
  fs.fsync_file("store/wal.0");

  StateStore recovered = StateStore::open(fs, "store", f.opts);
  EXPECT_EQ(recovered.manager().save_state(), f.op_states[0]);
  EXPECT_EQ(recovered.recovery_report().replayed_records, 1u);
  EXPECT_EQ(recovered.recovery_report().truncated_records, 1u);
}

TEST(StateStore, SplicedDuplicateRecordFailsTheHmacChain) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  std::size_t first_end = 0;
  {
    StateStore store = StateStore::open(fs, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    store.add_user(rng);
    first_end = fs.read("store/wal.0").size();
    store.add_user(rng);
  }
  // Replay attack: duplicate the first record's frame (it starts right
  // after the 45-byte WAL header) at the tail. Its CRC is fine; the
  // chained HMAC is what must reject it.
  const Bytes wal = fs.read("store/wal.0");
  Bytes spliced = wal;
  spliced.insert(spliced.end(), wal.begin() + 45, wal.begin() + first_end);
  fs.write("store/wal.0", spliced);
  fs.fsync_file("store/wal.0");

  StateStore recovered = StateStore::open(fs, "store", f.opts);
  EXPECT_EQ(recovered.manager().save_state(), f.op_states[1]);
  EXPECT_EQ(recovered.recovery_report().replayed_records, 2u);
  EXPECT_EQ(recovered.recovery_report().truncated_records, 1u);
}

TEST(StateStore, InvalidNewerSnapshotIsSkippedAndRemoved) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  // A forged newer generation that fails validation must not mask gen 0.
  fs.write("store/snap.7", Bytes(64, 0x5A));
  fs.fsync_file("store/snap.7");
  fs.fsync_dir("store");
  StateStore recovered = StateStore::open(fs, "store", f.opts);
  EXPECT_EQ(recovered.generation(), 0u);
  EXPECT_EQ(recovered.recovery_report().skipped_snapshots, 1u);
  EXPECT_GE(recovered.recovery_report().stale_files_removed, 1u);
  EXPECT_FALSE(fs.exists("store/snap.7"));
  EXPECT_EQ(recovered.manager().save_state(), f.initial_state);
}

TEST(StateStore, CorruptOnlySnapshotIsUnrecoverable) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  Bytes snap = fs.read("store/snap.0");
  snap[snap.size() / 2] ^= 0x01;
  fs.write("store/snap.0", snap);
  fs.fsync_file("store/snap.0");
  EXPECT_THROW(StateStore::open(fs, "store", f.opts), DecodeError);
}

// The tentpole assertion: kill the process-model at EVERY mutating I/O
// boundary of the script. After each crash the store must recover to a
// record-prefix of the mutation sequence, at least as new as the last
// acknowledged operation; fsck must pass; and the pre-crash survivor
// (user 0) must still be able to decrypt after catching up.
template <typename Script>
void check_crash_matrix(const ScriptFixture& f, Script script) {
  ASSERT_GT(f.total_io_ops, 0u);
  for (std::uint64_t crash_at = 0; crash_at < f.total_io_ops; ++crash_at) {
    MemFileIo fs = f.base_fs;
    FilePlan plan;
    plan.seed = 1000 + crash_at;
    plan.crash_at = crash_at;
    FaultyFileIo io(fs, plan);

    std::size_t acked_ops = 0;
    bool crashed = false;
    try {
      StateStore store = StateStore::open(io, "store", f.opts);
      ChaChaRng rng(kScriptSeed);
      script_base_manager(rng);
      script(store, rng, [&] { ++acked_ops; });
    } catch (const CrashPoint&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "crash_at " << crash_at;

    fs.crash();  // power cut: only fsync'ed state survives
    StateStore recovered = StateStore::open(fs, "store", f.opts);
    const Bytes state = recovered.manager().save_state();
    const std::size_t idx = state_index(f, state);
    ASSERT_NE(idx, static_cast<std::size_t>(-1))
        << "crash_at " << crash_at
        << ": recovered state is not a record-prefix of the script";
    const std::size_t min_records =
        acked_ops == 0 ? 0 : f.records_after_op[acked_ops - 1];
    EXPECT_GE(idx, min_records)
        << "crash_at " << crash_at << ": an acknowledged op was lost";

    // The recovered directory is pristine again.
    const FsckReport fsck = fsck_store(fs, "store", /*repair=*/false);
    EXPECT_TRUE(fsck.ok) << "crash_at " << crash_at;

    // The survivor catches up through the archive and still decrypts.
    const SecurityManager& mgr = recovered.manager();
    Receiver survivor(mgr.params(), f.survivor_key, mgr.verification_key());
    for (const SignedResetBundle& bundle : mgr.reset_archive()) {
      if (bundle.reset.new_period >= survivor.needed_from()) {
        survivor.apply_reset(bundle);
      }
    }
    ASSERT_EQ(survivor.period(), mgr.period()) << "crash_at " << crash_at;
    ChaChaRng enc_rng(4242);
    const Gelt m = mgr.params().group.random_element(enc_rng);
    const Ciphertext ct =
        encrypt(mgr.params(), mgr.public_key(), m, enc_rng);
    EXPECT_EQ(survivor.decrypt(ct), m) << "crash_at " << crash_at;
  }
}

TEST(StateStore, CrashMatrixRecoversAPrefixAtEveryCrashPoint) {
  check_crash_matrix(fixture(), run_script);
}

// The same matrix under the default rule, across its first (size-
// triggered) rotation: every crash inside the snapshot write, the WAL
// switch and the old generation's removal recovers an exact prefix.
TEST(StateStore, CrashMatrixDefaultRuleCrossesASizeRotation) {
  static const ScriptFixture f =
      build_fixture(StoreOptions{}, run_long_script);
  {
    MemFileIo fs = f.base_fs;
    StateStore store = StateStore::open(fs, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    run_long_script(store, rng, [] {});
    ASSERT_EQ(store.generation(), 1u);  // the script crosses one rotation
  }
  check_crash_matrix(f, run_long_script);
}

TEST(StateStore, SecondOpenIsLockedOutWithoutTouchingTheStore) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  const Bytes wal_before = fs.read("store/wal.0");
  try {
    StateStore second = StateStore::open(fs, "store", f.opts);
    FAIL() << "second open must throw StoreLockedError";
  } catch (const StoreLockedError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("is locked by pid"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(::getpid())), std::string::npos) << msg;
  }
  // The loser backed off before reading or writing any store state.
  EXPECT_EQ(fs.read("store/wal.0"), wal_before);

  // Releasing the winner (here: via move, then destruction) frees the lock.
  { StateStore moved = std::move(store); }
  StateStore third = StateStore::open(fs, "store", f.opts);
  EXPECT_EQ(third.manager().save_state(), f.initial_state);
}

TEST(StateStore, CreateIsAlsoLockedOut) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  ChaChaRng rng(5);
  SecurityManager mgr(test::test_params(2), rng);
  EXPECT_THROW(StateStore::create(fs, "store", std::move(mgr), rng, f.opts),
               StoreLockedError);
}

TEST(StateStore, ProcessDeathReleasesTheLock) {
  // flock state dies with the holder: a power cut (or SIGKILL) must leave
  // the directory openable even though the LOCK file is still there.
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  MemFileIo cut = fs;  // disk image taken while the lock is held
  cut.crash();
  StateStore recovered = StateStore::open(cut, "store", f.opts);
  EXPECT_EQ(recovered.manager().save_state(), f.initial_state);
}

TEST(StateStore, BatchedCommitsDeferDurabilityUntilSync) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);

  store.set_batching(true);
  const std::size_t wal_before = fs.read("store/wal.0").size();
  store.add_user(rng);
  store.add_user(rng);
  EXPECT_EQ(store.unsynced_records(), 2u);
  EXPECT_EQ(fs.read("store/wal.0").size(), wal_before)
      << "staged records must not reach the file before sync()";
  {
    // Nothing was acknowledged yet, so losing both records is correct.
    MemFileIo cut = fs;
    cut.crash();
    StateStore lost = StateStore::open(cut, "store", f.opts);
    EXPECT_EQ(lost.manager().save_state(), f.initial_state);
  }

  store.sync();
  EXPECT_EQ(store.unsynced_records(), 0u);
  EXPECT_GT(fs.read("store/wal.0").size(), wal_before);
  MemFileIo cut = fs;
  cut.crash();
  StateStore recovered = StateStore::open(cut, "store", f.opts);
  EXPECT_EQ(recovered.manager().save_state(), f.op_states[1]);
  EXPECT_EQ(recovered.recovery_report().replayed_records, 2u);
}

TEST(StateStore, TurningBatchingOffFlushesPendingRecords) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  store.set_batching(true);
  store.add_user(rng);
  store.set_batching(false);
  EXPECT_EQ(store.unsynced_records(), 0u);
  MemFileIo cut = fs;
  cut.crash();
  StateStore recovered = StateStore::open(cut, "store", f.opts);
  EXPECT_EQ(recovered.manager().save_state(), f.op_states[0]);
}

// The review-found duplicate-frame hazard: sync() fails after the batch's
// append may already have landed. The process keeps running (think ENOSPC
// that later clears) — the store must fail-stop instead of re-appending
// the staged frames, because byte-identical duplicates break the HMAC
// chain and recovery would then truncate every LATER acked batch.
TEST(StateStore, FailedFlushPoisonsTheStoreInsteadOfDuplicatingFrames) {
  const ScriptFixture& f = fixture();

  // I/O ops of a crash-free open + one-record batch + sync: the last op is
  // the batch's fsync, the one before it the batch's single append.
  std::uint64_t total_ops = 0;
  {
    MemFileIo fs = f.base_fs;
    FaultyFileIo io(fs, FilePlan{});
    StateStore store = StateStore::open(io, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    store.set_batching(true);
    store.add_user(rng);
    store.sync();
    total_ops = io.fault_counters().mutating_ops;
  }
  ASSERT_GE(total_ops, 2u);

  // fail_at = append: nothing of the batch reached the file.
  // fail_at = fsync: the append landed but was never made durable.
  for (const std::uint64_t fail_at : {total_ops - 2, total_ops - 1}) {
    MemFileIo fs = f.base_fs;
    FilePlan plan;
    plan.seed = 4242 + fail_at;
    plan.crash_at = fail_at;
    FaultyFileIo io(fs, plan);
    {
      StateStore store = StateStore::open(io, "store", f.opts);
      ChaChaRng rng(kScriptSeed);
      script_base_manager(rng);
      store.set_batching(true);
      store.add_user(rng);
      EXPECT_THROW(store.sync(), CrashPoint) << "fail_at " << fail_at;
      EXPECT_TRUE(store.poisoned());

      // The faulty plan has fired, so any further I/O would SUCCEED — a
      // retry that re-appended pending_ would go through and corrupt the
      // chain. The poisoned store must refuse instead, touching nothing.
      const Bytes wal_after_failure = fs.read("store/wal.0");
      EXPECT_THROW(store.sync(), StorePoisonedError);
      EXPECT_THROW(store.add_user(rng), StorePoisonedError);
      EXPECT_THROW(store.snapshot(), StorePoisonedError);
      store.set_batching(false);  // the daemon's shutdown path: no flush
      EXPECT_EQ(fs.read("store/wal.0"), wal_after_failure)
          << "fail_at " << fail_at << ": a poisoned store wrote to the WAL";
    }

    // Whatever reached the file is a single valid chain prefix: reopening
    // recovers it (the NACKed record may be present — indeterminate, like
    // a crash — but never duplicated) and fsck is clean.
    const FsckReport fsck = fsck_store(fs, "store", /*repair=*/false);
    EXPECT_TRUE(fsck.ok) << "fail_at " << fail_at;
    StateStore recovered = StateStore::open(fs, "store", f.opts);
    const Bytes state = recovered.manager().save_state();
    if (fail_at == total_ops - 1) {
      EXPECT_EQ(state, f.op_states[0]) << "appended record lost";
    } else {
      EXPECT_EQ(state, f.initial_state) << "unappended record appeared";
    }
  }
}

// The group-commit crash matrix: the script runs in three batches (a
// sync() after ops 1, 3 and 5), and the process-model is killed at EVERY
// mutating I/O boundary — including inside a batch's single multi-record
// append. Recovery must land on a record-granular prefix that contains
// every mutation whose covering sync() returned; fsck must pass.
TEST(StateStore, GroupCommitCrashMatrixKeepsEveryAckedBatch) {
  const ScriptFixture& f = fixture();
  constexpr std::size_t kSyncAfter[] = {1, 3, 5};
  const auto is_sync_point = [&](std::size_t op) {
    return std::find(std::begin(kSyncAfter), std::end(kSyncAfter), op) !=
           std::end(kSyncAfter);
  };

  // I/O ops of a crash-free batched run.
  std::uint64_t total_ops = 0;
  {
    MemFileIo fs = f.base_fs;
    FaultyFileIo io(fs, FilePlan{});
    StateStore store = StateStore::open(io, "store", f.opts);
    ChaChaRng rng(kScriptSeed);
    script_base_manager(rng);
    store.set_batching(true);
    std::size_t op = 0;
    run_script(store, rng, [&] {
      if (is_sync_point(op)) store.sync();
      ++op;
    });
    store.set_batching(false);
    total_ops = io.fault_counters().mutating_ops;
  }
  ASSERT_GT(total_ops, 0u);

  for (std::uint64_t crash_at = 0; crash_at < total_ops; ++crash_at) {
    MemFileIo fs = f.base_fs;
    FilePlan plan;
    plan.seed = 9000 + crash_at;
    plan.crash_at = crash_at;
    FaultyFileIo io(fs, plan);

    std::size_t acked_ops = 0;  // ops covered by a completed sync()
    bool crashed = false;
    try {
      StateStore store = StateStore::open(io, "store", f.opts);
      ChaChaRng rng(kScriptSeed);
      script_base_manager(rng);
      store.set_batching(true);
      std::size_t op = 0;
      run_script(store, rng, [&] {
        if (is_sync_point(op)) {
          store.sync();
          acked_ops = op + 1;
        }
        ++op;
      });
      store.set_batching(false);
    } catch (const CrashPoint&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "crash_at " << crash_at;

    fs.crash();
    StateStore recovered = StateStore::open(fs, "store", f.opts);
    const Bytes state = recovered.manager().save_state();
    const std::size_t idx = state_index(f, state);
    ASSERT_NE(idx, static_cast<std::size_t>(-1))
        << "crash_at " << crash_at
        << ": recovered state is not a record-prefix of the script";
    const std::size_t min_records =
        acked_ops == 0 ? 0 : f.records_after_op[acked_ops - 1];
    EXPECT_GE(idx, min_records)
        << "crash_at " << crash_at << ": an acknowledged batch was lost";

    const FsckReport fsck = fsck_store(fs, "store", /*repair=*/false);
    EXPECT_TRUE(fsck.ok) << "crash_at " << crash_at;
  }
}

// ---- the rotation rule (DESIGN.md Sect. 9.2) ---------------------------------

/// Forwards to a MemFileIo, counting the bytes reads return and noting the
/// size each append leaves its file at.
class CountingFileIo final : public FileIo {
 public:
  explicit CountingFileIo(MemFileIo& inner) : inner_(inner) {}

  std::size_t bytes_read() const { return bytes_read_; }
  std::size_t last_append_bytes() const { return last_append_bytes_; }
  std::size_t last_append_file_bytes() const { return last_append_file_; }

  bool exists(const std::string& p) const override { return inner_.exists(p); }
  bool is_dir(const std::string& p) const override { return inner_.is_dir(p); }
  std::vector<std::string> list(const std::string& d) const override {
    return inner_.list(d);
  }
  Bytes read(const std::string& p) const override {
    Bytes out = inner_.read(p);
    bytes_read_ += out.size();
    return out;
  }
  Bytes read_range(const std::string& p, std::size_t off,
                   std::size_t len) const override {
    Bytes out = inner_.read_range(p, off, len);
    bytes_read_ += out.size();
    return out;
  }
  void write(const std::string& p, BytesView d) override { inner_.write(p, d); }
  void append(const std::string& p, BytesView d) override {
    inner_.append(p, d);
    last_append_bytes_ = d.size();
    last_append_file_ = inner_.read(p).size();
  }
  void truncate(const std::string& p, std::size_t n) override {
    inner_.truncate(p, n);
  }
  void rename(const std::string& f, const std::string& t) override {
    inner_.rename(f, t);
  }
  void remove(const std::string& p) override { inner_.remove(p); }
  void mkdir(const std::string& p) override { inner_.mkdir(p); }
  void fsync_file(const std::string& p) override { inner_.fsync_file(p); }
  void fsync_dir(const std::string& d) override { inner_.fsync_dir(d); }
  bool lock(const std::string& p, std::uint64_t* h) override {
    return inner_.lock(p, h);
  }
  void unlock(const std::string& p) override { inner_.unlock(p); }

 private:
  MemFileIo& inner_;
  mutable std::size_t bytes_read_ = 0;
  std::size_t last_append_bytes_ = 0;
  std::size_t last_append_file_ = 0;
};

/// Triggers of the rotations in the event ring, oldest first.
std::vector<std::string> rotation_triggers() {
  std::vector<std::string> out;
  for (const obs::Event& e : obs::MetricsRegistry::instance().events()) {
    if (e.name == "store_snapshot") out.push_back(e.detail);
  }
  return out;
}

TEST(StateStore, DefaultRuleRotatesLogarithmicallyInThePopulation) {
  // 4096 add-users from an empty store. The count rule rotates every 64
  // records; the default rule only once the WAL has caught up with the
  // snapshot, i.e. each time the population grew by a constant factor.
  const auto run = [](StoreOptions opts) {
    MemFileIo fs;
    ChaChaRng rng(kScriptSeed);
    SecurityManager mgr(test::test_params(2, kScriptSeed), rng);
    StateStore store =
        StateStore::create(fs, "store", std::move(mgr), rng, opts);
    for (int i = 0; i < 4096; ++i) store.add_user(rng);
    return store.generation();
  };
  StoreOptions count64;
  count64.snapshot_every = 64;
  EXPECT_EQ(run(count64), 64u);
  obs::MetricsRegistry::instance().reset();
  const std::uint64_t rotations = run(StoreOptions{});
  EXPECT_GE(rotations, 1u);
  EXPECT_LE(rotations, 12u);  // log2(4096)
  const std::vector<std::string> triggers = rotation_triggers();
  EXPECT_EQ(triggers.size(), rotations);
  for (const std::string& t : triggers) EXPECT_EQ(t, "bytes");
}

TEST(StateStore, DefaultRuleBoundsWalBytesAndReplayWeight) {
  // A population whose snapshot outweighs any 64 records, then a seeded
  // batched mix of adds, revokes and new-periods. At its largest (the
  // batch landed, the rotation not yet taken) the WAL holds at most the
  // snapshot's bytes plus that batch; after every sync a replay redoes
  // fewer slot computations than the limit, also as reopened from disk.
  MemFileIo fs;
  CountingFileIo io(fs);
  ChaChaRng rng(kScriptSeed);
  SecurityManager mgr(test::test_params(2, kScriptSeed), rng);
  for (int i = 0; i < 1500; ++i) mgr.add_user(rng);
  StateStore store = StateStore::create(io, "store", std::move(mgr), rng);
  ASSERT_EQ(store.replay_weight_limit(), kRotationMinRecords * 3);
  obs::MetricsRegistry::instance().reset();
  store.set_batching(true);
  std::uint64_t victim = 1;
  for (int batch = 0; batch < 300; ++batch) {
    const std::size_t snap_bytes = store.snapshot_bytes();
    const std::size_t ops = 1 + rng.u64() % 8;
    for (std::size_t i = 0; i < ops; ++i) {
      const std::uint64_t roll = rng.u64() % 10;
      if (roll < 5) {
        store.add_user(rng);
      } else if (roll < 9) {
        const std::uint64_t ids[] = {victim++};
        store.remove_users(ids, rng);
      } else {
        store.new_period(rng);
      }
    }
    store.sync();
    EXPECT_LE(io.last_append_file_bytes(),
              snap_bytes + io.last_append_bytes())
        << "batch " << batch;
    EXPECT_LT(store.replay_weight(), store.replay_weight_limit())
        << "batch " << batch;
    EXPECT_LT(store.wal_bytes(), store.snapshot_bytes()) << "batch " << batch;
    if (batch % 50 == 49) {
      MemFileIo cut = fs;
      cut.crash();
      const StateStore reopened = StateStore::open(cut, "store");
      EXPECT_EQ(reopened.replay_weight(), store.replay_weight());
      EXPECT_EQ(reopened.wal_bytes(), store.wal_bytes());
      EXPECT_EQ(reopened.snapshot_bytes(), store.snapshot_bytes());
    }
  }
  EXPECT_GE(store.generation(), 2u);
  const std::vector<std::string> triggers = rotation_triggers();
  EXPECT_EQ(triggers.size(), store.generation());
  for (const std::string& t : triggers) EXPECT_EQ(t, "replay");
}

TEST(StateStore, ReopenMidWalRotatesAtTheSameRecord) {
  // open() re-derives WAL bytes, replay weight and snapshot bytes from the
  // files, so a store reopened every 37 ops keeps the uninterrupted run's
  // rotation schedule record for record.
  const auto run = [](std::size_t reopen_every) {
    MemFileIo fs;
    ChaChaRng rng(kScriptSeed);
    SecurityManager mgr(test::test_params(2, kScriptSeed), rng);
    std::optional<StateStore> store;
    store.emplace(StateStore::create(fs, "store", std::move(mgr), rng));
    std::vector<std::uint64_t> gens;
    std::uint64_t victim = 0;
    for (std::size_t op = 0; op < 600; ++op) {
      if (reopen_every != 0 && op % reopen_every == 0) {
        store.reset();
        store.emplace(StateStore::open(fs, "store"));
      }
      if (op % 5 == 4) {
        const std::uint64_t ids[] = {victim++};
        store->remove_users(ids, rng);
      } else {
        store->add_user(rng);
      }
      gens.push_back(store->generation());
    }
    return std::make_pair(gens, store->manager().save_state());
  };
  const auto straight = run(0);
  EXPECT_GE(straight.first.back(), 3u);
  const auto reopened = run(37);
  EXPECT_EQ(reopened.first, straight.first);
  EXPECT_EQ(reopened.second, straight.second);
}

TEST(StateStore, GeneratorTablesLeaveNoTraceInTheLog) {
  // Revokes and new-periods committed with the g/g' pair installed (no
  // multiexp, fixed-base pows instead) replay, with no pair, to the same
  // public key and the same snapshot bytes.
  MemFileIo fs;
  ChaChaRng rng(kScriptSeed);
  StoreOptions opts;
  opts.snapshot_every = 1000;  // every record stays in the WAL
  PublicKey pk;
  Bytes state;
  {
    StateStore store =
        StateStore::create(fs, "store", script_base_manager(rng), rng, opts);
    store.set_generator_tables(
        GeneratorTables::build(store.manager().params()));
    obs::Counter& multiexps = obs::counter("dfky_group_multiexp_total");
    obs::Counter& table_pows = obs::counter("dfky_fixedbase_pow_total");
    const std::uint64_t multiexps0 = multiexps.value();
    const std::uint64_t table_pows0 = table_pows.value();
    run_script(store, rng, [] {});
    store.add_user(rng);  // user 4
    const std::uint64_t kill[] = {4};  // period 1 is saturated: rolls
    EXPECT_EQ(store.remove_users(kill, rng).size(), 1u);
    EXPECT_EQ(multiexps.value(), multiexps0);
    EXPECT_GT(table_pows.value(), table_pows0);
    EXPECT_EQ(store.generation(), 0u);
    pk = store.manager().public_key();
    state = store.manager().save_state();
  }
  StateStore reopened = StateStore::open(fs, "store", opts);
  EXPECT_FALSE(reopened.manager().generator_tables().g);
  EXPECT_GT(reopened.recovery_report().replayed_records, 0u);
  EXPECT_EQ(reopened.manager().public_key(), pk);
  EXPECT_EQ(reopened.manager().save_state(), state);
}

TEST(StateStore, ExplicitSnapshotEveryKeepsTheCountRule) {
  // snapshot_every = 3: rotate after the commit that brings the WAL to 3
  // or more records, exactly as the fixed schedule always did.
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  StateStore store = StateStore::open(fs, "store", f.opts);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  std::size_t op = 0, records_before = 0, held = 0;
  std::uint64_t gen = 0;
  run_script(store, rng, [&] {
    held += f.records_after_op[op] - records_before;
    records_before = f.records_after_op[op];
    if (held >= 3) {
      ++gen;
      held = 0;
    }
    EXPECT_EQ(store.generation(), gen) << "op " << op;
    EXPECT_EQ(store.wal_records(), held) << "op " << op;
    ++op;
  });
  EXPECT_GE(gen, 2u);
}

TEST(Fsck, CleanStoreChecksOut) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  const FsckReport r = fsck_store(fs, "store", /*repair=*/false);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.repaired);
  EXPECT_FALSE(r.unrecoverable);
  EXPECT_EQ(r.generation, 0u);
  EXPECT_EQ(r.wal_records, 0u);
  EXPECT_EQ(r.torn_tail_bytes, 0u);
  EXPECT_EQ(r.stale_files, 0u);
  EXPECT_TRUE(r.notes.empty());
}

TEST(Fsck, CheckModeReportsWithoutTouchingTheStore) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  fs.append("store/wal.0", Bytes(21, 0xDD));
  fs.write("store/snap.0.tmp", Bytes(4, 0));
  const Bytes wal_before = fs.read("store/wal.0");

  const FsckReport r = fsck_store(fs, "store", /*repair=*/false);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.unrecoverable);
  EXPECT_EQ(r.torn_tail_bytes, 21u);
  EXPECT_EQ(r.stale_files, 1u);
  EXPECT_FALSE(r.notes.empty());
  EXPECT_EQ(fs.read("store/wal.0"), wal_before);  // nothing was written
  EXPECT_TRUE(fs.exists("store/snap.0.tmp"));
}

TEST(Fsck, RepairModeTruncatesAndCleans) {
  const ScriptFixture& f = fixture();
  MemFileIo fs = f.base_fs;
  fs.append("store/wal.0", Bytes(21, 0xDD));
  fs.write("store/snap.0.tmp", Bytes(4, 0));

  const FsckReport r = fsck_store(fs, "store", /*repair=*/true);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.repaired);
  EXPECT_EQ(r.torn_tail_bytes, 21u);
  EXPECT_FALSE(fs.exists("store/snap.0.tmp"));

  const FsckReport clean = fsck_store(fs, "store", /*repair=*/false);
  EXPECT_TRUE(clean.ok);
  EXPECT_FALSE(clean.repaired);
}

TEST(Fsck, UnrecoverableOnBadKeyOrSnapshot) {
  const ScriptFixture& f = fixture();
  {
    MemFileIo fs = f.base_fs;
    Bytes key = fs.read("store/store.key");
    key[6] ^= 0xFF;
    fs.write("store/store.key", key);
    const FsckReport r = fsck_store(fs, "store", /*repair=*/false);
    EXPECT_TRUE(r.unrecoverable);
    EXPECT_FALSE(r.ok);
  }
  {
    MemFileIo fs = f.base_fs;
    Bytes snap = fs.read("store/snap.0");
    snap[snap.size() - 1] ^= 0x01;  // breaks the HMAC tag
    fs.write("store/snap.0", snap);
    const FsckReport check = fsck_store(fs, "store", /*repair=*/false);
    EXPECT_TRUE(check.unrecoverable);
    const FsckReport repair = fsck_store(fs, "store", /*repair=*/true);
    EXPECT_TRUE(repair.unrecoverable);
    EXPECT_FALSE(repair.ok);
  }
  MemFileIo empty;
  EXPECT_TRUE(fsck_store(empty, "missing", /*repair=*/false).unrecoverable);
}

// ---- sharded deployments (DESIGN.md Sect. 11) ---------------------------------

constexpr std::size_t kShards = 3;
constexpr std::uint64_t kShardSeed = 4242;

/// A 3-shard set with two durably acked users per shard. Built once; every
/// crash run starts from a copy of the returned filesystem.
MemFileIo sharded_base_fs() {
  MemFileIo fs;
  ChaChaRng rng(kShardSeed);
  const SystemParams sp = test::test_params(2, /*seed=*/kShardSeed);
  std::vector<SecurityManager> managers;
  for (std::size_t i = 0; i < kShards; ++i) managers.emplace_back(sp, rng);
  std::vector<StateStore> stores =
      create_shard_set(fs, "shards", std::move(managers), rng);
  for (StateStore& s : stores) {
    s.add_user(rng);  // unbatched: durable (acked) before the crash run
    s.add_user(rng);
  }
  return fs;
}

/// The two-phase cross-shard new-period, on raw stores: phase 1 stages
/// every shard's reset record in memory, phase 2 syncs shard by shard —
/// exactly the I/O schedule ShardRouter::new_period_all issues, so the
/// FaultyFileIo crash indices land between the phases and between the
/// per-shard syncs.
void run_two_phase_new_period(FileIo& io) {
  ChaChaRng rng(kShardSeed + 1);
  std::vector<StateStore> stores = open_shard_set(io, "shards", rng);
  for (StateStore& s : stores) s.set_batching(true);
  for (StateStore& s : stores) s.new_period(rng);  // phase 1: no file I/O
  for (StateStore& s : stores) s.sync();           // phase 2: commit
  for (StateStore& s : stores) s.set_batching(false);
}

TEST(ShardSet, CreateAndOpenRoundTrip) {
  MemFileIo fs = sharded_base_fs();
  EXPECT_TRUE(is_shard_root(fs, "shards"));
  EXPECT_FALSE(is_shard_root(fs, "shards/shard.0"));
  EXPECT_EQ(count_shards(fs, "shards"), kShards);

  ChaChaRng rng(1);
  ShardSetReport rep;
  const std::vector<StateStore> stores =
      open_shard_set(fs, "shards", rng, {}, &rep);
  EXPECT_EQ(rep.shards, kShards);
  EXPECT_EQ(rep.epoch, 0u);
  EXPECT_EQ(rep.rolled_forward, 0u);
  ASSERT_EQ(rep.recoveries.size(), kShards);
  for (const StateStore& s : stores) {
    EXPECT_EQ(s.manager().users().size(), 2u);
  }

  // A shard set is not a plain store and vice versa.
  EXPECT_THROW(StateStore::open(fs, "shards"), Error);
  MemFileIo plain;
  ChaChaRng rng2(2);
  SecurityManager mgr(test::test_params(2, /*seed=*/7), rng2);
  StateStore::create(plain, "store", std::move(mgr), rng2);
  EXPECT_THROW(open_shard_set(plain, "store", rng2), Error);
}

TEST(ShardSet, OpenLocksAllShardsOrNone) {
  MemFileIo fs = sharded_base_fs();
  ChaChaRng rng(1);
  {
    // Somebody holds ONE shard in the middle of the set...
    StateStore holder = StateStore::open(fs, "shards/shard.1");
    // ...so the set open must fail, releasing the locks it already took.
    EXPECT_THROW(open_shard_set(fs, "shards", rng), StoreLockedError);
  }
  // All-or-nothing: after the holder is gone, every shard (including
  // shard.0, locked and unwound during the failed attempt) opens cleanly.
  const std::vector<StateStore> stores = open_shard_set(fs, "shards", rng);
  EXPECT_EQ(stores.size(), kShards);
}

TEST(ShardSet, CrossShardNewPeriodCrashMatrixRecoversOneEpoch) {
  const MemFileIo base_fs = sharded_base_fs();

  // I/O ops of a crash-free open + two-phase barrier.
  std::uint64_t total_ops = 0;
  {
    MemFileIo fs = base_fs;
    FaultyFileIo io(fs, FilePlan{});
    run_two_phase_new_period(io);
    total_ops = io.fault_counters().mutating_ops;
  }
  ASSERT_GT(total_ops, 0u);

  for (std::uint64_t crash_at = 0; crash_at < total_ops; ++crash_at) {
    MemFileIo fs = base_fs;
    FilePlan plan;
    plan.seed = 9000 + crash_at;
    plan.crash_at = crash_at;
    FaultyFileIo io(fs, plan);
    bool crashed = false;
    try {
      run_two_phase_new_period(io);
    } catch (const CrashPoint&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "crash_at " << crash_at;

    // Power cut: volatile writes vanish, then the daemon restarts.
    fs.crash();
    ChaChaRng rng(7);
    ShardSetReport rep;
    const std::vector<StateStore> recovered =
        open_shard_set(fs, "shards", rng, {}, &rep);

    // The un-acked barrier either fully vanished (epoch 0) or was rolled
    // forward to completion (epoch 1) — never a mixed-epoch set.
    EXPECT_LE(rep.epoch, 1u) << "crash_at " << crash_at;
    for (const StateStore& s : recovered) {
      EXPECT_EQ(s.manager().period(), rep.epoch)
          << "crash_at " << crash_at << " shard " << s.dir();
      // Every durably acked mutation (the two adds per shard) survived.
      EXPECT_EQ(s.manager().users().size(), 2u) << "crash_at " << crash_at;
    }

    // The recovered set passes fsck shard by shard.
    for (std::size_t i = 0; i < kShards; ++i) {
      const FsckReport r =
          fsck_store(fs, "shards/" + shard_dir_name(i), /*repair=*/false);
      EXPECT_TRUE(r.ok) << "crash_at " << crash_at << " shard " << i;
      EXPECT_EQ(r.period, rep.epoch) << "crash_at " << crash_at;
    }
  }
}

// ---- replication (DESIGN.md Sect. 12) -----------------------------------------

/// A primary/follower pair sharing one HMAC key: the follower directory is
/// a clone of the primary's taken right after create() (the bootstrap
/// step), so shipped frames append verbatim and chain-verify.
struct ReplicaPair {
  MemFileIo pfs, ffs;
  std::optional<StateStore> prim, foll;

  explicit ReplicaPair(std::size_t snapshot_every = 1000) {
    StoreOptions opts;
    opts.snapshot_every = snapshot_every;
    ChaChaRng rng(kScriptSeed);
    SecurityManager mgr = script_base_manager(rng);
    ChaChaRng key_rng(1);
    prim.emplace(
        StateStore::create(pfs, "store", std::move(mgr), key_rng, opts));
    clone_store_files(pfs, ffs, "store");
    foll.emplace(StateStore::open(ffs, "store", opts));
  }

  /// Ships everything the follower is missing, exactly like the daemon's
  /// ReplicationSender: snapshot resync on a generation mismatch, then
  /// frames from the follower's record count.
  void ship_all() {
    if (foll->generation() != prim->generation()) {
      foll->replica_apply_snapshot(prim->generation(),
                                   prim->read_snapshot_frame());
    }
    const WalShipment ship = prim->read_frames_from(foll->wal_records());
    foll->replica_apply_frames(ship.generation, ship.start_record,
                               ship.frames);
  }

  void expect_identical() {
    EXPECT_EQ(foll->generation(), prim->generation());
    EXPECT_EQ(foll->wal_records(), prim->wal_records());
    EXPECT_EQ(foll->chain_head_hex(), prim->chain_head_hex());
    EXPECT_EQ(foll->manager().save_state(), prim->manager().save_state());
    const std::string wal =
        "store/wal." + std::to_string(prim->generation());
    EXPECT_EQ(ffs.read(wal), pfs.read(wal));
  }
};

TEST(Replication, ShippedFramesReplayToAnIdenticalReplica) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);  // burn the setup draws
  run_script(*p.prim, rng, [&] {
    p.ship_all();
    p.expect_identical();
  });
  EXPECT_GT(p.prim->wal_records(), 0u);
}

TEST(Replication, DuplicateShipmentLeavesTheStoreByteIdentical) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});

  const WalShipment ship = p.prim->read_frames_from(0);
  ASSERT_GT(ship.records, 0u);
  const std::uint64_t acked =
      p.foll->replica_apply_frames(ship.generation, 0, ship.frames);
  EXPECT_EQ(acked, p.prim->wal_records());
  const Bytes wal_clean = p.ffs.read("store/wal.0");
  const Bytes state_clean = p.foll->manager().save_state();

  // Re-delivering the whole shipment (a retry after a lost ack) is a
  // structural skip: same ack, same bytes, same manager state.
  const std::uint64_t again =
      p.foll->replica_apply_frames(ship.generation, 0, ship.frames);
  EXPECT_EQ(again, acked);
  EXPECT_EQ(p.ffs.read("store/wal.0"), wal_clean);
  EXPECT_EQ(p.foll->manager().save_state(), state_clean);
  p.expect_identical();
}

TEST(Replication, TornFinalFrameAppliesThePrefixThenConverges) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});

  const WalShipment ship = p.prim->read_frames_from(0);
  ASSERT_GT(ship.records, 1u);
  // Cut the shipment mid-final-frame (a connection torn mid-send).
  Bytes torn(ship.frames.begin(), ship.frames.end() - 5);
  const std::uint64_t acked =
      p.foll->replica_apply_frames(ship.generation, 0, torn);
  EXPECT_EQ(acked, ship.records - 1);
  EXPECT_EQ(p.foll->wal_records(), ship.records - 1);

  // Full re-delivery from record 0: the already-held prefix is skipped,
  // the once-torn final frame lands whole, replicas converge.
  const std::uint64_t again =
      p.foll->replica_apply_frames(ship.generation, 0, ship.frames);
  EXPECT_EQ(again, ship.records);
  p.expect_identical();
}

TEST(Replication, CorruptFrameIsRejectedWithoutSideEffects) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});

  WalShipment ship = p.prim->read_frames_from(0);
  ASSERT_GT(ship.frames.size(), kWalFrameHeaderBytes);
  ship.frames[kWalFrameHeaderBytes] ^= 0x01;  // first record's payload
  const Bytes wal_before = p.ffs.read("store/wal.0");
  EXPECT_THROW(p.foll->replica_apply_frames(ship.generation, 0, ship.frames),
               DecodeError);
  EXPECT_EQ(p.foll->wal_records(), 0u);
  EXPECT_EQ(p.ffs.read("store/wal.0"), wal_before);
}

TEST(Replication, GapAndGenerationMismatchAreRejected) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});
  const WalShipment ship = p.prim->read_frames_from(0);

  // A shipment starting past the follower's head would hide lost records.
  EXPECT_THROW(p.foll->replica_apply_frames(ship.generation, 2, ship.frames),
               DecodeError);
  // A generation the follower is not on needs a snapshot resync instead.
  EXPECT_THROW(
      p.foll->replica_apply_frames(ship.generation + 1, 0, ship.frames),
      DecodeError);
  EXPECT_EQ(p.foll->wal_records(), 0u);
}

TEST(Replication, SnapshotShipmentResyncsAcrossARotation) {
  // snapshot_every=3 forces rotations mid-script; the lagging follower
  // must resync via the shipped snapshot frame, then tail the new WAL.
  ReplicaPair p(/*snapshot_every=*/3);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});
  ASSERT_GT(p.prim->generation(), 0u);

  p.ship_all();
  p.expect_identical();

  // Dup snapshot delivery (<= current generation) is an idempotent no-op.
  const Bytes state = p.foll->manager().save_state();
  p.foll->replica_apply_snapshot(p.prim->generation(),
                                 p.prim->read_snapshot_frame());
  EXPECT_EQ(p.foll->manager().save_state(), state);
  p.expect_identical();
}

TEST(Replication, InspectStoreWalComparesReplicas) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});

  // Ship everything but the final record: a lagging follower.
  const WalShipment all = p.prim->read_frames_from(0);
  const WalShipment head = p.prim->read_frames_from(0, all.frames.size() - 1);
  ASSERT_LT(head.records, all.records);
  p.foll->replica_apply_frames(head.generation, 0, head.frames);

  const WalInspection wp = inspect_store_wal(p.pfs, "store");
  const WalInspection wf = inspect_store_wal(p.ffs, "store");
  ASSERT_TRUE(wp.ok);
  ASSERT_TRUE(wf.ok);
  EXPECT_EQ(wp.generation, wf.generation);
  EXPECT_EQ(wp.records, all.records);
  EXPECT_EQ(wf.records, head.records);
  // The lagging WAL is a byte prefix of the longer one (fsck --replica's
  // agreement criterion)...
  EXPECT_TRUE(std::equal(wf.frames.begin(), wf.frames.end(),
                         wp.frames.begin()));
  EXPECT_NE(wp.chain_head_hex, wf.chain_head_hex);

  // ...while independent histories at the same generation are not: fork
  // the follower with a local mutation instead of the primary's stream.
  ChaChaRng fork_rng(4242);
  p.foll->add_user(fork_rng);
  const WalInspection forked = inspect_store_wal(p.ffs, "store");
  ASSERT_TRUE(forked.ok);
  EXPECT_EQ(forked.generation, wp.generation);
  const std::size_t shorter = std::min(forked.frames.size(),
                                       wp.frames.size());
  EXPECT_FALSE(std::equal(forked.frames.begin(),
                          forked.frames.begin() + shorter,
                          wp.frames.begin()));
}

/// Frames [k, end) of a WAL file, found by walking every length prefix.
Bytes full_scan_slice(const Bytes& wal, std::size_t k) {
  std::size_t off = kWalHeaderBytes;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len = (std::size_t{wal[off]} << 24) |
                            (std::size_t{wal[off + 1]} << 16) |
                            (std::size_t{wal[off + 2]} << 8) |
                            std::size_t{wal[off + 3]};
    off += kWalFrameHeaderBytes + len;
  }
  return Bytes(wal.begin() + static_cast<std::ptrdiff_t>(off), wal.end());
}

TEST(Replication, ReadFramesFromReadsOnlyTheShippedBytes) {
  // The frame index locates a shipment, so read_frames_from(k) on a long
  // WAL reads the shipped frames and nothing else, and chain_tag_hex_at
  // reads nothing. Both agree with a full scan of the file, also in a
  // fresh generation and after replica_truncate.
  MemFileIo fs;
  CountingFileIo io(fs);
  ChaChaRng rng(kScriptSeed);
  SecurityManager mgr = script_base_manager(rng);
  StoreOptions opts;
  opts.snapshot_every = 1000;  // one long WAL
  StateStore store = StateStore::create(io, "store", std::move(mgr), rng, opts);
  const auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    const std::size_t n = store.wal_records();
    const Bytes wal =
        fs.read("store/wal." + std::to_string(store.generation()));
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n - 1,
                                n}) {
      std::size_t before = io.bytes_read();
      const WalShipment ship = store.read_frames_from(k);
      EXPECT_LE(io.bytes_read() - before, kWalHeaderBytes + ship.frames.size());
      EXPECT_EQ(ship.frames, full_scan_slice(wal, k)) << "k " << k;
      EXPECT_EQ(ship.records, n - k);
      EXPECT_EQ(ship.start_record, k);

      // A capped shipment is the whole-frame prefix the cap admits.
      before = io.bytes_read();
      const WalShipment capped = store.read_frames_from(k, 300);
      EXPECT_LE(io.bytes_read() - before,
                kWalHeaderBytes + capped.frames.size());
      EXPECT_EQ(capped.frames,
                Bytes(ship.frames.begin(),
                      ship.frames.begin() + static_cast<std::ptrdiff_t>(
                                                capped.frames.size())));
      if (k < n) {
        EXPECT_GE(capped.records, 1u);
        const Bytes rest = full_scan_slice(wal, k + capped.records);
        EXPECT_EQ(capped.frames.size() + rest.size(), ship.frames.size());
      }
      before = io.bytes_read();
      store.chain_tag_hex_at(k);
      EXPECT_EQ(io.bytes_read(), before);
    }
  };

  std::uint64_t victim = 1;
  for (int i = 0; i < 200; ++i) {
    store.add_user(rng);
    if (i % 10 == 9) {
      const std::uint64_t ids[] = {victim++};
      store.remove_users(ids, rng);
    }
  }
  check("long WAL");
  store.snapshot();
  for (int i = 0; i < 40; ++i) store.add_user(rng);
  check("after a rotation");
  const std::uint64_t keep = store.wal_records() - 7;
  store.replica_truncate(store.generation(), keep,
                         store.chain_tag_hex_at(keep));
  ASSERT_EQ(store.wal_records(), keep);
  check("after replica_truncate");
  for (int i = 0; i < 5; ++i) store.add_user(rng);
  check("after appending to a truncated WAL");
}

TEST(Replication, ReplicaKeepsThePrimaryRotationSchedule) {
  // A follower's WAL bytes, replay weight and snapshot bytes track the
  // primary's through frame ingest and snapshot installs, so a promoted
  // follower rotates where the primary would have.
  MemFileIo pfs, ffs;
  ChaChaRng rng(kScriptSeed);
  SecurityManager mgr = script_base_manager(rng);
  ChaChaRng key_rng(1);
  StateStore prim = StateStore::create(pfs, "store", std::move(mgr), key_rng);
  clone_store_files(pfs, ffs, "store");
  StateStore foll = StateStore::open(ffs, "store");
  std::uint64_t victim = 1;
  for (int i = 0; i < 400; ++i) {
    if (i % 4 == 3) {
      const std::uint64_t ids[] = {victim++};
      prim.remove_users(ids, rng);
    } else {
      prim.add_user(rng);
    }
    if (foll.generation() != prim.generation()) {
      foll.replica_apply_snapshot(prim.generation(),
                                  prim.read_snapshot_frame());
    }
    const WalShipment ship = prim.read_frames_from(foll.wal_records());
    foll.replica_apply_frames(ship.generation, ship.start_record, ship.frames);
    ASSERT_EQ(foll.wal_bytes(), prim.wal_bytes()) << "op " << i;
    ASSERT_EQ(foll.replay_weight(), prim.replay_weight()) << "op " << i;
    ASSERT_EQ(foll.snapshot_bytes(), prim.snapshot_bytes()) << "op " << i;
  }
  EXPECT_GE(prim.generation(), 2u);
}

TEST(Replication, UserCountsMatchAScanAfterScriptReopenAndIngest) {
  // active_users()/revoked_users() are kept as counts; they must agree
  // with a scan of users() however the manager was reached.
  const auto expect_counts = [](const SecurityManager& m, const char* where) {
    std::size_t active = 0, revoked = 0;
    for (const UserRecord& u : m.users()) (u.revoked ? revoked : active) += 1;
    EXPECT_EQ(m.active_users(), active) << where;
    EXPECT_EQ(m.revoked_users(), revoked) << where;
  };
  ReplicaPair p(/*snapshot_every=*/3);
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [&] {
    expect_counts(p.prim->manager(), "primary");
    p.ship_all();  // snapshot installs and frame ingest
    expect_counts(p.foll->manager(), "replica");
  });
  EXPECT_GT(p.prim->manager().revoked_users(), 0u);
  MemFileIo cut = p.pfs;
  cut.crash();
  const StateStore reopened = StateStore::open(cut, "store");
  expect_counts(reopened.manager(), "reopened");
  EXPECT_EQ(reopened.manager().revoked_users(),
            p.prim->manager().revoked_users());
}

TEST(Term, PersistsMonotonicallyAcrossReopen) {
  ReplicaPair p;
  EXPECT_EQ(p.prim->term(), 0u);  // no TERM file = term 0

  p.prim->set_term(7);
  EXPECT_EQ(p.prim->term(), 7u);
  p.prim->set_term(3);  // terms only move forward
  EXPECT_EQ(p.prim->term(), 7u);

  MemFileIo cut = p.pfs;
  cut.crash();  // set_term is durable the moment it returns
  StateStore reopened = StateStore::open(cut, "store");
  EXPECT_EQ(reopened.term(), 7u);
}

TEST(Term, CorruptOrAbsentFileReadsZero) {
  ReplicaPair p;
  p.prim->set_term(5);
  MemFileIo cut = p.pfs;
  cut.crash();  // also drops prim's LOCK so reopening is legal

  // Flip a byte of the persisted payload: the CRC rejects it and open()
  // degrades to term 0 (an old-primary restart then loses any election to
  // a node with a real term — safe, just conservative).
  const std::string path = std::string("store/") + StateStore::kTermFile;
  Bytes raw = cut.read(path);
  raw[raw.size() / 2] ^= 0x01;
  cut.write(path, raw);
  {
    StateStore reopened = StateStore::open(cut, "store");
    EXPECT_EQ(reopened.term(), 0u);
  }
  MemFileIo gone = p.pfs;
  gone.crash();
  gone.remove(path);
  StateStore reopened = StateStore::open(gone, "store");
  EXPECT_EQ(reopened.term(), 0u);
}

TEST(Term, ChainTagAtMatchesPrefixBoundaries) {
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [] {});
  const std::uint64_t n = p.prim->wal_records();
  ASSERT_GT(n, 1u);

  EXPECT_EQ(p.prim->chain_tag_hex_at(n), p.prim->chain_head_hex());
  EXPECT_EQ(p.foll->chain_tag_hex_at(0), p.prim->chain_tag_hex_at(0));
  EXPECT_THROW(p.prim->chain_tag_hex_at(n + 1), DecodeError);

  // A follower holding a true prefix agrees with the primary at every
  // shared depth — the divergence probe the sender runs.
  const WalShipment all = p.prim->read_frames_from(0);
  const WalShipment head = p.prim->read_frames_from(0, all.frames.size() - 1);
  p.foll->replica_apply_frames(head.generation, 0, head.frames);
  for (std::uint64_t i = 0; i <= head.records; ++i) {
    EXPECT_EQ(p.foll->chain_tag_hex_at(i), p.prim->chain_tag_hex_at(i)) << i;
  }
}

TEST(Term, ReplicaTruncateDropsAForkedSuffixAndRejoins) {
  // A fenced ex-primary holds the shared history plus a forked (NACKed)
  // suffix; replica_truncate must cut exactly at the divergence point,
  // rebuild the manager from the retained prefix, and leave the store
  // able to tail the new primary's stream again.
  ReplicaPair p;
  ChaChaRng rng(kScriptSeed);
  script_base_manager(rng);
  run_script(*p.prim, rng, [&] { p.ship_all(); });
  p.expect_identical();
  const std::uint64_t shared = p.prim->wal_records();
  const Bytes shared_state = p.prim->manager().save_state();

  // The (about-to-be-fenced) primary writes two records past the fence...
  ChaChaRng fork_rng(4242);
  p.prim->add_user(fork_rng);
  p.prim->add_user(fork_rng);
  ASSERT_EQ(p.prim->wal_records(), shared + 2);
  // ...while the promoted follower's history moves on independently.
  ChaChaRng new_rng(8888);
  p.foll->add_user(new_rng);

  // Wrong tag (the new primary's head, not the tag at the cut): refused,
  // nothing changes.
  EXPECT_THROW(p.prim->replica_truncate(p.prim->generation(), shared,
                                        p.foll->chain_head_hex()),
               DecodeError);
  EXPECT_EQ(p.prim->wal_records(), shared + 2);

  // The sender's walk lands on the last agreeing depth.
  const std::uint64_t after = p.prim->replica_truncate(
      p.prim->generation(), shared, p.foll->chain_tag_hex_at(shared));
  EXPECT_EQ(after, shared);
  EXPECT_EQ(p.prim->wal_records(), shared);
  EXPECT_EQ(p.prim->chain_head_hex(), p.prim->chain_tag_hex_at(shared));
  EXPECT_EQ(p.prim->manager().save_state(), shared_state);

  // Re-seeded over the wire: the ex-primary tails the new history and the
  // pair is byte-identical again (roles swapped vs the fixture helpers).
  const WalShipment ship = p.foll->read_frames_from(shared);
  p.prim->replica_apply_frames(ship.generation, ship.start_record,
                               ship.frames);
  EXPECT_EQ(p.prim->chain_head_hex(), p.foll->chain_head_hex());
  EXPECT_EQ(p.prim->manager().save_state(), p.foll->manager().save_state());

  // And the truncation is durable, not an in-memory fiction.
  MemFileIo cut = p.pfs;
  cut.crash();
  StateStore reopened = StateStore::open(cut, "store");
  EXPECT_EQ(reopened.wal_records(), p.foll->wal_records());
  EXPECT_EQ(reopened.chain_head_hex(), p.foll->chain_head_hex());
}

}  // namespace
}  // namespace dfky
