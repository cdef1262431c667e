#include "store/file_io.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace dfky {

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// ---- RealFileIo ----------------------------------------------------------------

namespace {

[[noreturn]] void io_fail(const std::string& op, const std::string& path) {
  throw IoError("file_io: " + op + " " + path + ": " + std::strerror(errno));
}

/// Retries a -1/errno syscall while it reports EINTR. With the daemon's
/// SIGINT/SIGTERM handlers installed, an interrupted append must not
/// surface as a spurious IoError mid-mutation.
template <typename Fn>
auto eintr_retry(Fn fn) {
  decltype(fn()) r;
  do {
    r = fn();
  } while (r < 0 && errno == EINTR);
  return r;
}

class Fd {
 public:
  Fd(const std::string& path, int flags, mode_t mode = 0644)
      : fd_(eintr_retry([&] { return ::open(path.c_str(), flags, mode); })),
        path_(path) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_;
  std::string path_;
};

void write_all(const Fd& fd, BytesView data, const char* op) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = eintr_retry(
        [&] { return ::write(fd.get(), data.data() + off, data.size() - off); });
    if (n < 0) io_fail(op, fd.path());
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool RealFileIo::exists(const std::string& path) const {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool RealFileIo::is_dir(const std::string& path) const {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string> RealFileIo::list(const std::string& dir) const {
  DIR* d = ::opendir(dir.empty() ? "." : dir.c_str());
  if (d == nullptr) io_fail("list", dir);
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    const std::string full = dir.empty() ? name : dir + "/" + name;
    if (::stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Bytes RealFileIo::read(const std::string& path) const {
  Fd fd(path, O_RDONLY);
  if (!fd.ok()) io_fail("read", path);
  Bytes out;
  byte buf[1 << 16];
  while (true) {
    const ssize_t n =
        eintr_retry([&] { return ::read(fd.get(), buf, sizeof buf); });
    if (n < 0) io_fail("read", path);
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

Bytes RealFileIo::read_range(const std::string& path, std::size_t offset,
                             std::size_t len) const {
  Fd fd(path, O_RDONLY);
  if (!fd.ok()) io_fail("read", path);
  Bytes out(len);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = eintr_retry([&] {
      return ::pread(fd.get(), out.data() + got, len - got,
                     static_cast<off_t>(offset + got));
    });
    if (n < 0) io_fail("read", path);
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return out;
}

void RealFileIo::write(const std::string& path, BytesView data) {
  Fd fd(path, O_WRONLY | O_CREAT | O_TRUNC);
  if (!fd.ok()) io_fail("write", path);
  write_all(fd, data, "write");
}

void RealFileIo::append(const std::string& path, BytesView data) {
  Fd fd(path, O_WRONLY | O_CREAT | O_APPEND);
  if (!fd.ok()) io_fail("append", path);
  write_all(fd, data, "append");
}

void RealFileIo::truncate(const std::string& path, std::size_t size) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) io_fail("truncate", path);
  if (static_cast<std::size_t>(st.st_size) < size) {
    errno = EINVAL;
    io_fail("truncate-grow", path);
  }
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    io_fail("truncate", path);
  }
}

void RealFileIo::rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) io_fail("rename", from);
}

void RealFileIo::remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0) io_fail("remove", path);
}

void RealFileIo::mkdir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0) io_fail("mkdir", path);
}

void RealFileIo::fsync_file(const std::string& path) {
  Fd fd(path, O_RDONLY);
  if (!fd.ok()) io_fail("fsync_file", path);
  if (eintr_retry([&] { return ::fsync(fd.get()); }) != 0) {
    io_fail("fsync_file", path);
  }
}

void RealFileIo::fsync_dir(const std::string& dir) {
  Fd fd(dir.empty() ? "." : dir, O_RDONLY | O_DIRECTORY);
  if (!fd.ok()) io_fail("fsync_dir", dir);
  if (eintr_retry([&] { return ::fsync(fd.get()); }) != 0) {
    io_fail("fsync_dir", dir);
  }
}

bool RealFileIo::lock(const std::string& path, std::uint64_t* holder) {
  if (holder != nullptr) *holder = 0;
  if (lock_fds_.contains(path)) {
    // We already hold it; flock would not tell us so on a fresh fd.
    if (holder != nullptr) *holder = static_cast<std::uint64_t>(::getpid());
    return false;
  }
  const int fd = eintr_retry(
      [&] { return ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644); });
  if (fd < 0) io_fail("lock", path);
  if (eintr_retry([&] { return ::flock(fd, LOCK_EX | LOCK_NB); }) != 0) {
    if (errno != EWOULDBLOCK && errno != EAGAIN) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      io_fail("lock", path);
    }
    // Contended: report the pid the holder stamped into the file. The
    // holder stamps it just after it takes the flock, so a file with no
    // complete line yet means we looked in between: give it a moment.
    char buf[32];
    ssize_t n = 0;
    for (int tries = 0; tries < 100; ++tries) {
      n = eintr_retry([&] { return ::pread(fd, buf, sizeof buf - 1, 0); });
      if (n < 0 || std::memchr(buf, '\n', static_cast<std::size_t>(n))) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (n > 0 && holder != nullptr) {
      buf[n] = '\0';
      *holder = std::strtoull(buf, nullptr, 10);
    }
    ::close(fd);
    return false;
  }
  // Ours now: stamp our pid over whatever a previous (dead) holder left.
  char buf[32];
  const int len =
      std::snprintf(buf, sizeof buf, "%ld\n", static_cast<long>(::getpid()));
  if (eintr_retry([&] { return ::ftruncate(fd, 0); }) != 0 ||
      eintr_retry([&] { return ::write(fd, buf, len); }) != len) {
    const int saved = errno;
    ::close(fd);  // releases the flock
    errno = saved;
    io_fail("lock", path);
  }
  lock_fds_[path] = fd;
  return true;
}

void RealFileIo::unlock(const std::string& path) {
  const auto it = lock_fds_.find(path);
  if (it == lock_fds_.end()) return;
  ::close(it->second);  // closing the description releases the flock
  lock_fds_.erase(it);
}

RealFileIo::~RealFileIo() {
  for (const auto& [path, fd] : lock_fds_) ::close(fd);
}

// ---- MemFileIo -----------------------------------------------------------------

MemFileIo::MemFileIo(const MemFileIo& other) { *this = other; }

MemFileIo& MemFileIo::operator=(const MemFileIo& other) {
  if (this == &other) return *this;
  std::scoped_lock lk(mu_, other.mu_);
  locks_ = other.locks_;
  files_ = other.files_;
  live_dirs_ = other.live_dirs_;
  durable_ns_ = other.durable_ns_;
  durable_dirs_ = other.durable_dirs_;
  return *this;
}

MemFileIo::Inode& MemFileIo::live_inode(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) throw IoError("mem_io: no such file: " + path);
  return it->second;
}

bool MemFileIo::exists(const std::string& path) const {
  std::lock_guard lk(mu_);
  return files_.contains(path) || live_dirs_.contains(path);
}

bool MemFileIo::is_dir(const std::string& path) const {
  std::lock_guard lk(mu_);
  return live_dirs_.contains(path);
}

std::vector<std::string> MemFileIo::list(const std::string& dir) const {
  std::lock_guard lk(mu_);
  if (!live_dirs_.contains(dir)) throw IoError("mem_io: no such dir: " + dir);
  std::vector<std::string> names;
  for (const auto& [path, inode] : files_) {
    (void)inode;
    if (dirname_of(path) == dir) {
      names.push_back(path.substr(dir.empty() ? 0 : dir.size() + 1));
    }
  }
  return names;  // std::map iteration is already sorted
}

Bytes MemFileIo::read(const std::string& path) const {
  std::lock_guard lk(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) throw IoError("mem_io: no such file: " + path);
  return it->second.live;
}

Bytes MemFileIo::read_range(const std::string& path, std::size_t offset,
                            std::size_t len) const {
  std::lock_guard lk(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) throw IoError("mem_io: no such file: " + path);
  const Bytes& live = it->second.live;
  const std::size_t begin = std::min(offset, live.size());
  const std::size_t end = begin + std::min(len, live.size() - begin);
  return Bytes(live.begin() + static_cast<std::ptrdiff_t>(begin),
               live.begin() + static_cast<std::ptrdiff_t>(end));
}

void MemFileIo::write(const std::string& path, BytesView data) {
  std::lock_guard lk(mu_);
  if (!live_dirs_.contains(dirname_of(path))) {
    throw IoError("mem_io: no such dir for: " + path);
  }
  files_[path].live.assign(data.begin(), data.end());
}

void MemFileIo::append(const std::string& path, BytesView data) {
  std::lock_guard lk(mu_);
  if (!live_dirs_.contains(dirname_of(path))) {
    throw IoError("mem_io: no such dir for: " + path);
  }
  Bytes& live = files_[path].live;
  live.insert(live.end(), data.begin(), data.end());
}

void MemFileIo::truncate(const std::string& path, std::size_t size) {
  std::lock_guard lk(mu_);
  Inode& ino = live_inode(path);
  if (ino.live.size() < size) throw IoError("mem_io: truncate grows " + path);
  ino.live.resize(size);
}

void MemFileIo::rename(const std::string& from, const std::string& to) {
  std::lock_guard lk(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) throw IoError("mem_io: rename missing " + from);
  if (!live_dirs_.contains(dirname_of(to))) {
    throw IoError("mem_io: rename into missing dir: " + to);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
}

void MemFileIo::remove(const std::string& path) {
  std::lock_guard lk(mu_);
  if (files_.erase(path) == 0) throw IoError("mem_io: remove missing " + path);
}

void MemFileIo::mkdir(const std::string& path) {
  std::lock_guard lk(mu_);
  if (files_.contains(path) || live_dirs_.contains(path)) {
    throw IoError("mem_io: mkdir exists: " + path);
  }
  if (!live_dirs_.contains(dirname_of(path))) {
    throw IoError("mem_io: mkdir into missing dir: " + path);
  }
  live_dirs_.insert(path);
}

void MemFileIo::fsync_file(const std::string& path) {
  std::lock_guard lk(mu_);
  Inode& ino = live_inode(path);
  ino.durable = ino.live;
  // If the directory entry is already durable, the synced content reaches
  // the platter immediately (POSIX fsync); otherwise it stays staged on the
  // inode until fsync_dir promotes the entry.
  const auto it = durable_ns_.find(path);
  if (it != durable_ns_.end()) it->second.durable = ino.durable;
}

void MemFileIo::fsync_dir(const std::string& dir) {
  std::lock_guard lk(mu_);
  if (!live_dirs_.contains(dir)) throw IoError("mem_io: no such dir: " + dir);
  // Persist the entry table of `dir`: creations, renames and removals all
  // become crash-safe. Content durability is fsync_file's job — an entry
  // promoted here still reverts to its last synced *content* on crash.
  durable_dirs_.insert(dir);
  for (auto it = durable_ns_.begin(); it != durable_ns_.end();) {
    if (dirname_of(it->first) == dir && !files_.contains(it->first)) {
      it = durable_ns_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [path, inode] : files_) {
    if (dirname_of(path) != dir) continue;
    durable_ns_[path].durable = inode.durable;
  }
}

bool MemFileIo::lock(const std::string& path, std::uint64_t* holder) {
  std::lock_guard lk(mu_);
  if (holder != nullptr) *holder = 0;
  if (!live_dirs_.contains(dirname_of(path))) {
    throw IoError("mem_io: no such dir for: " + path);
  }
  const auto it = locks_.find(path);
  if (it != locks_.end()) {
    if (holder != nullptr) *holder = it->second;
    return false;
  }
  const auto pid = static_cast<std::uint64_t>(::getpid());
  locks_[path] = pid;
  // Mirror RealFileIo: the lock file exists (and lists) while held, with
  // the holder's pid as its content, and is never unlinked.
  const std::string text = std::to_string(pid) + "\n";
  files_[path].live.assign(text.begin(), text.end());
  return true;
}

void MemFileIo::unlock(const std::string& path) {
  std::lock_guard lk(mu_);
  locks_.erase(path);
}

void MemFileIo::crash() {
  std::lock_guard lk(mu_);
  std::map<std::string, Inode> survivors;
  for (const auto& [path, inode] : durable_ns_) {
    survivors[path] = Inode{inode.durable, inode.durable};
  }
  files_ = std::move(survivors);
  live_dirs_ = durable_dirs_;
  locks_.clear();  // kernel-held locks die with the process
}

void MemFileIo::inject_durable_append(const std::string& path,
                                      BytesView data) {
  std::lock_guard lk(mu_);
  auto it = durable_ns_.find(path);
  if (it == durable_ns_.end()) return;  // entry never durable: nothing lands
  it->second.durable.insert(it->second.durable.end(), data.begin(),
                            data.end());
  // Mirror into the live inode's synced content so a later fsync-less
  // crash() is idempotent.
  auto live = files_.find(path);
  if (live != files_.end()) {
    live->second.durable = it->second.durable;
  }
}

// ---- FaultyFileIo --------------------------------------------------------------

namespace {

inline void note_io_fault(const char* kind) {
  DFKY_OBS(obs::counter("dfky_store_io_faults_total", {{"kind", kind}}).inc(););
#if !DFKY_OBS_ENABLED
  (void)kind;
#endif
}

}  // namespace

FaultyFileIo::FaultyFileIo(MemFileIo& fs, FilePlan plan)
    : fs_(fs), plan_(plan), rng_(plan.seed) {}

FilePlan FaultyFileIo::plan() const {
  std::lock_guard lk(mu_);
  return plan_;
}

FileFaultCounters FaultyFileIo::fault_counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

void FaultyFileIo::set_plan(FilePlan plan) {
  std::lock_guard lk(mu_);
  plan_ = plan;
}

void FaultyFileIo::mutating_op(const char* op, const std::string& path,
                               BytesView torn_data,
                               const std::string* torn_target) {
  std::lock_guard lk(mu_);
  const std::uint64_t index = counters_.mutating_ops++;
  if (plan_.crash_at && index == *plan_.crash_at) {
    ++counters_.crashes;
    note_io_fault("crash");
    if (torn_target != nullptr && !torn_data.empty()) {
      // A seeded prefix of the in-flight append reaches the platter.
      const std::size_t kept = rng_.u64() % (torn_data.size() + 1);
      fs_.inject_durable_append(*torn_target, torn_data.subspan(0, kept));
      counters_.torn_bytes += kept;
      if (kept > 0) note_io_fault("torn_append");
    }
    throw CrashPoint(std::string("injected crash at op ") +
                     std::to_string(index) + " (" + op + " " + path + ")");
  }
}

bool FaultyFileIo::exists(const std::string& path) const {
  return fs_.exists(path);
}
bool FaultyFileIo::is_dir(const std::string& path) const {
  return fs_.is_dir(path);
}
std::vector<std::string> FaultyFileIo::list(const std::string& dir) const {
  return fs_.list(dir);
}

void FaultyFileIo::fault_read(Bytes& data) const {
  // Unconditional draws keep the PRG stream aligned across runs, exactly
  // like FaultyBus::roll.
  const std::uint64_t flip_roll = rng_.u64();
  const std::uint64_t flip_pos = rng_.u64();
  const std::uint64_t short_roll = rng_.u64();
  const std::uint64_t short_len = rng_.u64();
  const auto hits = [](std::uint64_t roll, double prob) {
    return static_cast<double>(roll >> 11) * (1.0 / 9007199254740992.0) < prob;
  };
  if (!data.empty() && hits(flip_roll, plan_.bitflip_read_prob)) {
    data[flip_pos % data.size()] ^=
        static_cast<byte>(1u << (flip_pos % 8));
    ++counters_.bitflips;
    note_io_fault("bitflip");
  }
  if (!data.empty() && hits(short_roll, plan_.short_read_prob)) {
    data.resize(short_len % data.size());
    ++counters_.short_reads;
    note_io_fault("short_read");
  }
}

Bytes FaultyFileIo::read(const std::string& path) const {
  std::lock_guard lk(mu_);
  ++counters_.reads;
  Bytes data = fs_.read(path);
  fault_read(data);
  return data;
}

Bytes FaultyFileIo::read_range(const std::string& path, std::size_t offset,
                               std::size_t len) const {
  std::lock_guard lk(mu_);
  ++counters_.reads;
  Bytes data = fs_.read_range(path, offset, len);
  fault_read(data);
  return data;
}

void FaultyFileIo::write(const std::string& path, BytesView data) {
  mutating_op("write", path, {}, nullptr);
  fs_.write(path, data);
}

void FaultyFileIo::append(const std::string& path, BytesView data) {
  mutating_op("append", path, data, &path);
  fs_.append(path, data);
}

void FaultyFileIo::truncate(const std::string& path, std::size_t size) {
  mutating_op("truncate", path, {}, nullptr);
  fs_.truncate(path, size);
}

void FaultyFileIo::rename(const std::string& from, const std::string& to) {
  mutating_op("rename", from, {}, nullptr);
  fs_.rename(from, to);
}

void FaultyFileIo::remove(const std::string& path) {
  mutating_op("remove", path, {}, nullptr);
  fs_.remove(path);
}

void FaultyFileIo::mkdir(const std::string& path) {
  mutating_op("mkdir", path, {}, nullptr);
  fs_.mkdir(path);
}

void FaultyFileIo::fsync_file(const std::string& path) {
  mutating_op("fsync_file", path, {}, nullptr);
  std::uint64_t delay = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    delay = plan_.fsync_delay_ns;
  }
  // Sleep outside the lock: a stalled fsync must not block other threads'
  // fault bookkeeping.
  if (delay != 0) std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
  fs_.fsync_file(path);
}

void FaultyFileIo::fsync_dir(const std::string& dir) {
  mutating_op("fsync_dir", dir, {}, nullptr);
  fs_.fsync_dir(dir);
}

bool FaultyFileIo::lock(const std::string& path, std::uint64_t* holder) {
  // Locking is a liveness primitive, not a durability one: it is not
  // counted as a mutating op (crash matrices key op indices off WAL I/O)
  // and never torn.
  return fs_.lock(path, holder);
}

void FaultyFileIo::unlock(const std::string& path) { fs_.unlock(path); }

}  // namespace dfky
