// The durable-store file abstraction: MemFileIo's durability model behaves
// like a kernel page cache over a power cut, RealFileIo round-trips on a
// real directory, and FaultyFileIo's injections are seed-deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "store/file_io.h"

namespace dfky {
namespace {

Bytes bytes_of(const char* s) {
  return Bytes(reinterpret_cast<const byte*>(s),
               reinterpret_cast<const byte*>(s) + std::strlen(s));
}

TEST(MemFileIo, WriteWithoutAnyFsyncVanishesOnCrash) {
  MemFileIo fs;
  fs.write("f", bytes_of("hello"));
  EXPECT_TRUE(fs.exists("f"));
  fs.crash();
  EXPECT_FALSE(fs.exists("f"));
}

TEST(MemFileIo, FsyncFileAloneIsNotEnoughForANewFile) {
  // POSIX: a new file needs its own fsync AND the directory entry fsync.
  MemFileIo fs;
  fs.mkdir("d");
  fs.write("d/f", bytes_of("hello"));
  fs.fsync_file("d/f");
  fs.crash();  // directory entry never promoted
  EXPECT_FALSE(fs.exists("d/f"));
  EXPECT_FALSE(fs.is_dir("d"));
}

TEST(MemFileIo, FsyncFilePlusDirSurvivesCrash) {
  MemFileIo fs;
  fs.mkdir("d");
  fs.write("d/f", bytes_of("hello"));
  fs.fsync_file("d/f");
  fs.fsync_dir("d");
  fs.fsync_dir("");
  fs.crash();
  ASSERT_TRUE(fs.exists("d/f"));
  EXPECT_EQ(fs.read("d/f"), bytes_of("hello"));
}

TEST(MemFileIo, UnsyncedContentRevertsToLastSyncedVersion) {
  MemFileIo fs;
  fs.write("f", bytes_of("v1"));
  fs.fsync_file("f");
  fs.fsync_dir("");
  fs.write("f", bytes_of("v2 much longer"));
  fs.crash();  // content overwrite never promoted
  EXPECT_EQ(fs.read("f"), bytes_of("v1"));
}

TEST(MemFileIo, UnsyncedAppendIsLostOnCrash) {
  MemFileIo fs;
  fs.write("f", bytes_of("base"));
  fs.fsync_file("f");
  fs.fsync_dir("");
  fs.append("f", bytes_of("+tail"));
  EXPECT_EQ(fs.read("f"), bytes_of("base+tail"));
  fs.crash();
  EXPECT_EQ(fs.read("f"), bytes_of("base"));
}

TEST(MemFileIo, RenameNeedsDirFsyncToStick) {
  MemFileIo fs;
  fs.write("a", bytes_of("x"));
  fs.fsync_file("a");
  fs.fsync_dir("");
  fs.rename("a", "b");
  fs.crash();  // rename never promoted
  EXPECT_TRUE(fs.exists("a"));
  EXPECT_FALSE(fs.exists("b"));

  fs.rename("a", "b");
  fs.fsync_dir("");
  fs.crash();
  EXPECT_FALSE(fs.exists("a"));
  ASSERT_TRUE(fs.exists("b"));
  EXPECT_EQ(fs.read("b"), bytes_of("x"));
}

TEST(MemFileIo, RemoveNeedsDirFsyncToStick) {
  MemFileIo fs;
  fs.write("f", bytes_of("x"));
  fs.fsync_file("f");
  fs.fsync_dir("");
  fs.remove("f");
  EXPECT_FALSE(fs.exists("f"));
  fs.crash();
  EXPECT_TRUE(fs.exists("f"));  // unlink was never promoted

  fs.remove("f");
  fs.fsync_dir("");
  fs.crash();
  EXPECT_FALSE(fs.exists("f"));
}

TEST(MemFileIo, TruncateShrinksAndRejectsGrowth) {
  MemFileIo fs;
  fs.write("f", bytes_of("0123456789"));
  fs.truncate("f", 4);
  EXPECT_EQ(fs.read("f"), bytes_of("0123"));
  EXPECT_THROW(fs.truncate("f", 8), IoError);
  EXPECT_THROW(fs.truncate("missing", 0), IoError);
}

TEST(MemFileIo, ListReturnsSortedBasenames) {
  MemFileIo fs;
  fs.mkdir("d");
  fs.write("d/b", {});
  fs.write("d/a", {});
  fs.write("other", {});
  EXPECT_EQ(fs.list("d"), (std::vector<std::string>{"a", "b"}));
  EXPECT_THROW(fs.list("nodir"), IoError);
}

TEST(MemFileIo, InjectDurableAppendModelsTornTail) {
  MemFileIo fs;
  fs.write("f", bytes_of("base"));
  fs.fsync_file("f");
  fs.fsync_dir("");
  fs.inject_durable_append("f", bytes_of("to"));  // torn prefix of "torn"
  fs.crash();
  EXPECT_EQ(fs.read("f"), bytes_of("baseto"));
}

TEST(RealFileIo, RoundTripOnTempDir) {
  char tmpl[] = "/tmp/dfky_fio_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  RealFileIo io;

  io.mkdir(root + "/store");
  EXPECT_TRUE(io.is_dir(root + "/store"));
  io.write(root + "/store/f", bytes_of("hello"));
  io.append(root + "/store/f", bytes_of(" world"));
  io.fsync_file(root + "/store/f");
  io.fsync_dir(root + "/store");
  EXPECT_EQ(io.read(root + "/store/f"), bytes_of("hello world"));
  io.truncate(root + "/store/f", 5);
  EXPECT_EQ(io.read(root + "/store/f"), bytes_of("hello"));
  io.rename(root + "/store/f", root + "/store/g");
  EXPECT_FALSE(io.exists(root + "/store/f"));
  io.write(root + "/store/a", {});
  EXPECT_EQ(io.list(root + "/store"), (std::vector<std::string>{"a", "g"}));
  EXPECT_THROW(io.read(root + "/store/missing"), IoError);

  io.remove(root + "/store/a");
  io.remove(root + "/store/g");
  ASSERT_EQ(std::system(("rm -rf " + root).c_str()), 0);
}

TEST(FaultyFileIo, CrashAtTearsTheInFlightAppend) {
  MemFileIo fs;
  fs.write("wal", bytes_of("base"));
  fs.fsync_file("wal");
  fs.fsync_dir("");

  FilePlan plan;
  plan.seed = 7;
  plan.crash_at = 1;  // op 0 = the fsync below, op 1 = the append
  FaultyFileIo io(fs, plan);
  io.fsync_file("wal");
  EXPECT_THROW(io.append("wal", bytes_of("ABCDEFGH")), CrashPoint);
  EXPECT_EQ(io.fault_counters().crashes, 1u);

  fs.crash();
  const Bytes after = fs.read("wal");
  // A seeded prefix of the append survives; never more than the whole.
  ASSERT_GE(after.size(), 4u);
  ASSERT_LE(after.size(), 12u);
  EXPECT_EQ(Bytes(after.begin(), after.begin() + 4), bytes_of("base"));
  EXPECT_EQ(io.fault_counters().torn_bytes, after.size() - 4);
}

TEST(FaultyFileIo, SameSeedSameFaults) {
  FileFaultCounters got[2];
  Bytes reads[2];
  for (int run = 0; run < 2; ++run) {
    MemFileIo fs;
    fs.write("f", Bytes(64, 0xAB));
    FilePlan plan;
    plan.seed = 99;
    plan.bitflip_read_prob = 0.5;
    plan.short_read_prob = 0.5;
    FaultyFileIo io(fs, plan);
    Bytes all;
    for (int i = 0; i < 8; ++i) {
      const Bytes r = io.read("f");
      all.insert(all.end(), r.begin(), r.end());
    }
    got[run] = io.fault_counters();
    reads[run] = all;
  }
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_GT(got[0].bitflips + got[0].short_reads, 0u);
}

TEST(FaultyFileIo, NoFaultsMeansTransparentPassThrough) {
  MemFileIo fs;
  FaultyFileIo io(fs, FilePlan{});
  io.mkdir("d");
  io.write("d/f", bytes_of("data"));
  io.fsync_file("d/f");
  io.fsync_dir("d");
  EXPECT_EQ(io.read("d/f"), bytes_of("data"));
  EXPECT_EQ(io.fault_counters().crashes, 0u);
  EXPECT_EQ(io.fault_counters().bitflips, 0u);
  EXPECT_EQ(io.fault_counters().mutating_ops, 4u);
  EXPECT_EQ(io.fault_counters().reads, 1u);
}

TEST(MemFileIo, LockIsExclusiveUntilUnlocked) {
  MemFileIo fs;
  fs.mkdir("d");
  std::uint64_t holder = 0;
  ASSERT_TRUE(fs.lock("d/LOCK", nullptr));
  EXPECT_FALSE(fs.lock("d/LOCK", &holder));
  EXPECT_EQ(holder, static_cast<std::uint64_t>(::getpid()));
  fs.unlock("d/LOCK");
  EXPECT_TRUE(fs.lock("d/LOCK", nullptr));
}

TEST(MemFileIo, LockNeedsTheParentDirectory) {
  MemFileIo fs;
  EXPECT_THROW(fs.lock("nodir/LOCK", nullptr), IoError);
}

TEST(MemFileIo, CrashDropsHeldLocks) {
  // flock locks die with the process; a post-crash reopen must succeed.
  MemFileIo fs;
  fs.mkdir("d");
  ASSERT_TRUE(fs.lock("d/LOCK", nullptr));
  fs.fsync_file("d/LOCK");
  fs.fsync_dir("d");
  fs.fsync_dir("");
  fs.crash();
  EXPECT_TRUE(fs.lock("d/LOCK", nullptr));
}

TEST(FaultyFileIo, LockForwardsWithoutCountingAsMutation) {
  // Locking is a liveness primitive, not a durability one: it must not
  // shift the crash-matrix op indices.
  MemFileIo fs;
  fs.mkdir("d");
  FaultyFileIo io(fs, FilePlan{});
  ASSERT_TRUE(io.lock("d/LOCK", nullptr));
  std::uint64_t holder = 0;
  EXPECT_FALSE(io.lock("d/LOCK", &holder));
  EXPECT_EQ(holder, static_cast<std::uint64_t>(::getpid()));
  io.unlock("d/LOCK");
  EXPECT_EQ(io.fault_counters().mutating_ops, 0u);
}

TEST(RealFileIo, LockIsExclusivePerProcessAndRecordsThePid) {
  char tmpl[] = "/tmp/dfky_fio_lock_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/LOCK";
  RealFileIo io;
  ASSERT_TRUE(io.lock(path, nullptr));
  // Same handle: re-locking our own lock reports ourselves as the holder.
  std::uint64_t holder = 0;
  EXPECT_FALSE(io.lock(path, &holder));
  EXPECT_EQ(holder, static_cast<std::uint64_t>(::getpid()));
  // The lock file carries the pid in text form for diagnostics.
  const Bytes content = io.read(path);
  EXPECT_EQ(std::string(content.begin(), content.end()),
            std::to_string(::getpid()) + "\n");
  io.unlock(path);
  EXPECT_TRUE(io.lock(path, nullptr));
  io.unlock(path);
  io.remove(path);
  ASSERT_EQ(::rmdir(tmpl), 0);
}

TEST(RealFileIo, ContendedLockWaitsForTheHoldersPid) {
  // A holder takes the flock first and stamps its pid right after, so a
  // contender can find the LOCK file still empty. It must report the pid
  // once stamped, not "locked by pid 0".
  char tmpl[] = "/tmp/dfky_fio_lock_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/LOCK";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
  std::thread stamper([fd] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(::write(fd, "4242\n", 5), 5);
  });
  RealFileIo io;
  std::uint64_t holder = 0;
  EXPECT_FALSE(io.lock(path, &holder));
  stamper.join();
  EXPECT_EQ(holder, 4242u);
  ::close(fd);
  ASSERT_EQ(::unlink(path.c_str()), 0);
  ASSERT_EQ(::rmdir(tmpl), 0);
}

TEST(FileIoHelpers, DirnameOf) {
  EXPECT_EQ(dirname_of("a/b/c"), "a/b");
  EXPECT_EQ(dirname_of("a"), "");
  EXPECT_EQ(dirname_of("a/b"), "a");
}

}  // namespace
}  // namespace dfky
