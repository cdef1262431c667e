// perfload — the served-path benchmark client (perfbench/README.md).
//
// Creates a scratch shard set, starts a real dfkyd on it, drives one
// workload over the unix socket from this one process (at most four
// request connections plus subscriber streams), checks the outputs, and
// prints an info line and then one JSON result line:
//
//   perfload --workload W --seed N --seconds S --trace 0|1
//            --dfkyd PATH --work-dir DIR [--spans FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (each for S/2), adds /metrics counter deltas
// and the in-process layer timings (layers.cpp), and reports the per-layer
// metrics. The spans it records are written to --spans at the end.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/content.h"
#include "core/keyfile.h"
#include "core/manager.h"
#include "core/receiver.h"
#include "daemon/protocol.h"
#include "group/params.h"
#include "layers.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"
#include "wire.h"

namespace perfbench {
namespace {

namespace dd = dfky::daemon;
using dfky::Bytes;
using dfky::BytesView;

constexpr std::size_t kV = 16;
constexpr int kWorkers = 4;
constexpr int kTimeoutMs = 30000;
constexpr int kSetups = 21;  // set-ups per untraced run; setup_s is the median
constexpr const char* kSocket = "d.sock";
constexpr std::uint64_t kOpenLoopPeriodNs = 20'000'000;  // one encrypt / 20 ms
constexpr std::uint64_t kNewPeriodEvery = 25;            // encrypts
// Payload index bases: phases and the probe tail never share an index.
constexpr std::uint64_t kTracedBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kProbeBase = std::uint64_t{1} << 50;

// ---- workloads -----------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t shards = 1;
  std::size_t payload_bytes = 0;
  std::size_t conns = 0;        // closed-loop connections (0: open loop)
  std::size_t window = 0;       // tagged requests in flight per connection
  std::size_t subscribers = 0;  // feed subscribers kept through the run
  std::size_t prekeys = 0;      // keys issued at set-up
};

std::optional<Workload> workload_named(const std::string& n) {
  if (n == "encrypt_read") return Workload{n, 1, 256, 4, 2, 0, 1};
  if (n == "mutate_ack") return Workload{n, 2, 256, 4, 4, 0, 64};
  if (n == "broadcast_feed") return Workload{n, 1, 65536, 0, 0, 3, 3};
  return std::nullopt;
}

enum Verb : std::size_t { kEncrypt, kAddUser, kRevoke, kNewPeriod, kVerbs };
constexpr const char* kVerbName[kVerbs] = {"encrypt", "add_user", "revoke",
                                           "new_period"};

// ---- small helpers -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double us_between(std::uint64_t a, std::uint64_t b) {
  return (static_cast<double>(b) - static_cast<double>(a)) / 1e3;
}

dd::Response parse(const std::string& line) {
  std::optional<dd::Response> r = dd::parse_response(line);
  if (!r) throw std::runtime_error("malformed response: " + line.substr(0, 160));
  return std::move(*r);
}

std::string field(const dd::Response& r, const char* key) {
  const auto it = r.fields.find(key);
  return it == r.fields.end() ? std::string() : it->second;
}

std::uint64_t u64_field(const dd::Response& r, const char* key) {
  const std::optional<std::uint64_t> v = dd::parse_u64(field(r, key));
  if (!v) throw std::runtime_error(std::string("response lacks ") + key);
  return *v;
}

/// The value of ` key=` in a push line (views into `line`).
std::string_view push_field(std::string_view line, std::string_view key) {
  const std::string pat = " " + std::string(key) + "=";
  const std::size_t p = line.find(pat);
  if (p == std::string_view::npos) return {};
  const std::size_t s = p + pat.size();
  const std::size_t e = line.find(' ', s);
  return line.substr(s, e == std::string_view::npos ? e : e - s);
}

std::vector<std::string_view> split_commas(std::string_view s) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t c = s.find(',');
    out.push_back(s.substr(0, c));
    if (c == std::string_view::npos) break;
    s.remove_prefix(c + 1);
  }
  return out;
}

Bytes unhex(std::string_view hex) {
  std::optional<Bytes> b = dd::hex_decode(hex);
  if (!b) {
    throw std::runtime_error("field is not hex (" + std::to_string(hex.size()) +
                             " chars): " + std::string(hex.substr(0, 60)));
  }
  return std::move(*b);
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<std::int64_t>(t))));
}

/// Deterministic payloads: a seeded pool of random bodies; payload i is
/// body i % pool with i in its first 8 bytes, so whoever decrypts a
/// payload can name it and check every byte of it.
class Payloads {
 public:
  Payloads(std::uint64_t seed, std::size_t bytes) {
    dfky::ChaChaRng rng(seed ^ 0x7061796c6f616473ULL);
    for (int i = 0; i < 8; ++i) {
      bodies_.push_back(rng.bytes(std::max<std::size_t>(bytes, 8)));
    }
  }
  Bytes make(std::uint64_t i) const {
    Bytes b = bodies_[i % bodies_.size()];
    std::memcpy(b.data(), &i, 8);
    return b;
  }
  static std::uint64_t index_of(BytesView b) {
    std::uint64_t i = 0;
    if (b.size() >= 8) std::memcpy(&i, b.data(), 8);
    return i;
  }
  bool matches(BytesView b) const {
    if (b.size() < 8) return false;
    const Bytes want = make(index_of(b));
    return std::equal(b.begin(), b.end(), want.begin(), want.end());
  }

 private:
  std::vector<Bytes> bodies_;
};

// ---- spans ---------------------------------------------------------------------

/// Client-side spans of a traced run, kept in memory and written out at
/// the end: one per request (due -> sent -> response) and one per
/// subscriber frame (received -> decrypted or applied).
struct Span {
  const char* name;
  std::uint64_t id;  // request tag, payload index or period
  std::uint64_t due_ns, start_ns, end_ns;
};

class SpanLog {
 public:
  void enable() { on_ = true; }
  void add(const Span& s) {
    if (!on_) return;
    std::lock_guard lk(mu_);
    spans_.push_back(s);
  }
  void write(const std::string& path, std::uint64_t t0,
             const std::string& daemon_trace) {
    std::ofstream out(path);
    std::lock_guard lk(mu_);
    for (const Span& s : spans_) {
      out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"due_us\":" << us_between(t0, s.due_ns)
          << ",\"start_us\":" << us_between(t0, s.start_ns)
          << ",\"end_us\":" << us_between(t0, s.end_ns) << "}\n";
    }
    out << daemon_trace;
  }

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

// ---- the daemon under test -----------------------------------------------------

/// A dfkyd child process serving ./store on ./d.sock with its metrics on
/// an ephemeral loopback port. The child dies with this process.
class DaemonProc {
 public:
  DaemonProc(const std::string& bin, int workers) {
    int p[2];
    if (::pipe2(p, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(p[1], STDOUT_FILENO);
      const std::string w = std::to_string(workers);
      ::execl(bin.c_str(), bin.c_str(), "store", "--socket", kSocket,
              "--metrics-port", "0", "--workers", w.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(p[1]);
    out_ = p[0];
    std::string text;
    const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
    while (text.find("dfkyd: ready\n") == std::string::npos) {
      pollfd pf{out_, POLLIN, 0};
      const std::uint64_t now = now_ns();
      if (now >= deadline || ::poll(&pf, 1, 100) < 0) {
        kill_now();
        throw std::runtime_error("dfkyd did not become ready");
      }
      if (!(pf.revents & (POLLIN | POLLHUP))) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n <= 0) {
        kill_now();
        throw std::runtime_error("dfkyd exited before it was ready");
      }
      text.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string tag = "metrics on http://127.0.0.1:";
    const std::size_t at = text.find(tag);
    if (at == std::string::npos) {
      kill_now();
      throw std::runtime_error("dfkyd printed no metrics port");
    }
    metrics_port_ = std::atoi(text.c_str() + at + tag.size());
  }
  ~DaemonProc() { stop(); }
  DaemonProc(const DaemonProc&) = delete;
  DaemonProc& operator=(const DaemonProc&) = delete;

  int metrics_port() const { return metrics_port_; }

  /// `shutdown`, then up to 10 s for the exit (SIGKILL after that). True
  /// when the daemon exited 0.
  bool stop() {
    if (pid_ < 0) return clean_;
    try {
      Conn c(kSocket);
      request(c, "shutdown");
    } catch (const std::exception&) {
    }
    const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        clean_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (now_ns() > deadline) {
        kill_now();
        break;
      }
      drain(20);
    }
    pid_ = -1;
    if (out_ >= 0) ::close(out_);
    out_ = -1;
    return clean_;
  }

 private:
  void drain(int ms) {
    if (out_ < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return;
    }
    pollfd pf{out_, POLLIN, 0};
    if (::poll(&pf, 1, ms) > 0) {
      char chunk[4096];
      if (::read(out_, chunk, sizeof chunk) <= 0) {
        ::close(out_);
        out_ = -1;
      }
    }
  }
  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    clean_ = false;
  }

  pid_t pid_ = -1;
  int out_ = -1;
  int metrics_port_ = -1;
  bool clean_ = false;
};

Prom scrape(int port) { return parse_prom(http_get(port, "/metrics")); }

// ---- keys and subscribers ------------------------------------------------------

struct IssuedKey {
  std::uint64_t id = 0;
  std::size_t shard = 0;
  Bytes file;  // key file bytes as add-user returned them
};

IssuedKey issued_key(const dd::Response& r) {
  return IssuedKey{u64_field(r, "id"),
                   static_cast<std::size_t>(u64_field(r, "shard")),
                   unhex(field(r, "key"))};
}

/// A feed subscriber: a library Receiver behind a `subscribe` stream that
/// decrypts every pushed ciphertext of its shard, checks the payload, and
/// applies every pushed reset of its shard.
class Subscriber {
 public:
  Subscriber(const IssuedKey& key, const Payloads& payloads)
      : conn_(kSocket),
        data_(dfky::decode_key_file(key.file)),
        rx_(data_.sp, data_.key, data_.manager_vk),
        shard_(std::to_string(key.shard)),
        payloads_(payloads) {
    conn_.send("subscribe");
    std::string line;
    if (!conn_.recv(line, kTimeoutMs)) throw std::runtime_error("subscribe timed out");
    const dd::Response r = parse(line);
    if (!r.ok) throw std::runtime_error("subscribe: " + r.error);
    period_ = rx_.period();
    thread_ = std::thread([this] { loop(); });
  }
  ~Subscriber() { stop(); }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    conn_.shutdown();
    thread_.join();
  }

  /// Waits until payload `index` was decrypted; when that finished, or
  /// nullopt.
  std::optional<std::uint64_t> wait_decrypted(std::uint64_t index, int timeout_ms) {
    return wait_done(decrypted_, index, timeout_ms);
  }
  /// Waits until the reset to `period` was applied; when that finished, or
  /// nullopt.
  std::optional<std::uint64_t> wait_applied(std::uint64_t period, int timeout_ms) {
    return wait_done(applied_, period, timeout_ms);
  }
  std::uint64_t period() {
    std::lock_guard lk(mu_);
    return period_;
  }
  std::uint64_t failures() {
    std::lock_guard lk(mu_);
    return failures_;
  }
  std::vector<double> frame_us() {
    std::lock_guard lk(mu_);
    return frame_us_;
  }

 private:
  void loop() {
    std::string line;
    for (;;) {
      try {
        if (!conn_.recv(line)) break;
      } catch (const std::exception&) {
        break;  // stop() shut the stream down, or the daemon went away
      }
      const std::uint64_t t_recv = now_ns();
      std::optional<std::uint64_t> index, period;
      bool ok = true;
      try {
        if (line.starts_with("bcast encrypt ")) {
          if (push_field(line, "shard") != shard_) continue;
          index = decrypt(unhex(push_field(line, "ct")));
        } else if (line.starts_with("bcast new-period ")) {
          period = apply(push_field(line, "bundles"));
          if (!period) continue;
        } else {
          continue;
        }
      } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "perfload: subscriber: %s\n", e.what());
      }
      const std::uint64_t t_done = now_ns();
      {
        std::lock_guard lk(mu_);
        if (!ok) ++failures_;
        if (index) decrypted_[*index] = t_done;
        if (period) {
          applied_[*period] = t_done;
          period_ = *period;
        }
        if (ok) frame_us_.push_back(us_between(t_recv, t_done));
      }
      cv_.notify_all();
      if (ok) {
        g_spans.add({index ? "frame.decrypt" : "frame.apply_reset",
                     index ? *index : *period, t_recv, t_recv, t_done});
      }
    }
  }

  std::optional<std::uint64_t> wait_done(
      const std::map<std::uint64_t, std::uint64_t>& done, std::uint64_t key,
      int timeout_ms) {
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                 [&] { return done.count(key) > 0; });
    const auto it = done.find(key);
    if (it == done.end()) return std::nullopt;
    return it->second;
  }

  /// The payload index of a correctly decrypted ciphertext; throws on a
  /// wrong plaintext or a ciphertext of a period this key cannot open.
  std::uint64_t decrypt(const Bytes& ct) {
    dfky::Reader rd(ct);
    const dfky::ContentMessage msg =
        dfky::ContentMessage::deserialize(rd, data_.sp.group);
    // A ciphertext sealed just before a period change can arrive after
    // its reset; the previous key still opens it.
    const dfky::UserKey* key = nullptr;
    if (msg.kem.period == rx_.period()) {
      key = &rx_.key();
    } else if (prev_ && prev_->period == msg.kem.period) {
      key = &*prev_;
    } else {
      throw std::runtime_error("ciphertext of period " +
                               std::to_string(msg.kem.period) +
                               " at key period " + std::to_string(rx_.period()));
    }
    const Bytes pt = dfky::open_content(data_.sp, *key, msg);
    if (!payloads_.matches(pt)) throw std::runtime_error("wrong plaintext");
    return Payloads::index_of(pt);
  }

  /// Applies the bundle of this subscriber's shard (other shards' bundles
  /// fail its manager key and are skipped); the new period, or nullopt
  /// when the frame held none for this shard.
  std::optional<std::uint64_t> apply(std::string_view bundles) {
    std::optional<std::uint64_t> applied;
    for (const std::string_view hex : split_commas(bundles)) {
      const Bytes raw = unhex(hex);
      dfky::Reader rd(raw);
      const dfky::SignedResetBundle b =
          dfky::SignedResetBundle::deserialize(rd, data_.sp.group);
      if (!b.verify(data_.sp.group, data_.manager_vk)) continue;
      const dfky::UserKey before = rx_.key();
      const dfky::ResetOutcome out = rx_.apply_reset(b);
      if (out == dfky::ResetOutcome::kApplied) {
        prev_ = before;
        applied = rx_.period();
      } else if (out != dfky::ResetOutcome::kStaleIgnored) {
        throw std::runtime_error("reset to period " +
                                 std::to_string(b.reset.new_period) +
                                 " not applied");
      }
    }
    return applied;
  }

  Conn conn_;
  dfky::KeyFileData data_;
  dfky::Receiver rx_;                   // loop thread only
  std::optional<dfky::UserKey> prev_;   // loop thread only
  std::string shard_;
  const Payloads& payloads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::uint64_t> decrypted_;  // payload index -> done
  std::map<std::uint64_t, std::uint64_t> applied_;    // period -> done
  std::uint64_t period_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<double> frame_us_;
  std::thread thread_;  // last: started after everything it reads
};

// ---- results -------------------------------------------------------------------

/// Latency samples (microseconds) and outcome counts of one phase.
struct Samples {
  std::vector<double> verb_us[kVerbs];
  std::vector<double> all_us;
  std::vector<double> deliver_us, rekey_us, late_us;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t completed = 0;  // ok responses inside the measured window
  std::uint64_t completed_ns = 0;  // when the last of them arrived
  std::uint64_t ok[kVerbs] = {};
  std::uint64_t publishes = 0;  // ok requests that pushed a feed frame

  void add(Verb v, double us) {
    verb_us[v].push_back(us);
    all_us.push_back(us);
    ++ok[v];
  }
  void merge(const Samples& o) {
    for (std::size_t v = 0; v < kVerbs; ++v) {
      verb_us[v].insert(verb_us[v].end(), o.verb_us[v].begin(),
                        o.verb_us[v].end());
      ok[v] += o.ok[v];
    }
    all_us.insert(all_us.end(), o.all_us.begin(), o.all_us.end());
    deliver_us.insert(deliver_us.end(), o.deliver_us.begin(), o.deliver_us.end());
    rekey_us.insert(rekey_us.end(), o.rekey_us.begin(), o.rekey_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    attempted += o.attempted;
    failed += o.failed;
    completed += o.completed;
    completed_ns = std::max(completed_ns, o.completed_ns);
    publishes += o.publishes;
  }
};

void note_failure(Samples& s, const std::string& what) {
  ++s.failed;
  if (s.failed <= 5) std::fprintf(stderr, "perfload: failure: %s\n", what.c_str());
}

// ---- set-up --------------------------------------------------------------------

struct Fixture {
  std::unique_ptr<DaemonProc> daemon;
  std::vector<IssuedKey> keys;  // issued at set-up
  std::vector<std::unique_ptr<Subscriber>> subs;
};

/// `n` add-users pipelined 16 deep on one connection.
std::vector<IssuedKey> add_users(std::size_t n) {
  Conn c(kSocket);
  std::vector<IssuedKey> keys(n);
  std::size_t sent = 0, got = 0;
  std::string line;
  while (got < n) {
    while (sent < n && sent - got < 16) {
      c.send("@" + std::to_string(sent) + " add-user");
      ++sent;
    }
    if (!c.recv(line, kTimeoutMs)) throw std::runtime_error("add-user timed out");
    const dd::Response r = parse(line);
    if (!r.ok || !r.id || *r.id >= n) throw std::runtime_error("set-up add-user: " + line.substr(0, 160));
    keys[*r.id] = issued_key(r);
    ++got;
  }
  return keys;
}

void init_store(std::size_t shards, std::uint64_t seed) {
  dfky::ChaChaRng rng(seed);
  const dfky::SystemParams sp = dfky::SystemParams::create(
      dfky::Group(dfky::GroupParams::named(dfky::ParamId::kSec512)), kV, rng);
  std::vector<dfky::SecurityManager> managers;
  for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, rng);
  dfky::RealFileIo io;
  // The returned stores hold the shard LOCKs; dropping them releases the
  // set for the daemon.
  const std::vector<dfky::StateStore> stores =
      dfky::create_shard_set(io, "store", std::move(managers), rng);
}

/// Store init, daemon start to `ready`, and the workload's pre-population.
Fixture set_up(const Workload& w, const std::string& dfkyd, std::uint64_t seed,
               const Payloads& payloads) {
  std::filesystem::remove_all("store");
  init_store(w.shards, seed);
  Fixture f;
  f.daemon = std::make_unique<DaemonProc>(dfkyd, kWorkers);
  f.keys = add_users(w.prekeys);
  for (std::size_t i = 0; i < w.subscribers; ++i) {
    f.subs.push_back(std::make_unique<Subscriber>(f.keys[i], payloads));
  }
  return f;
}

bool tear_down(Fixture& f) {
  f.subs.clear();
  const bool clean = f.daemon->stop();
  f.daemon.reset();
  std::filesystem::remove_all("store");
  return clean;
}

// ---- closed loop (encrypt_read, mutate_ack) ------------------------------------

struct CtSample {
  std::uint64_t index;
  std::string ct_hex;
};

/// One connection keeping `w.window` tagged requests in flight until
/// `t_end`. encrypt_read sends encrypts; mutate_ack sends 90% add-user and
/// 10% revoke of a random still-active id this connection holds.
void closed_loop_conn(const Workload& w, const Payloads& payloads,
                      std::uint64_t seed, std::size_t conn_no,
                      std::uint64_t index_base, std::uint64_t t_end,
                      std::vector<std::uint64_t> active, Samples& s,
                      std::vector<CtSample>& ct_samples) {
  Conn c(kSocket);
  std::mt19937_64 rng(seed * 1000003 + conn_no + 1);
  struct Pending {
    Verb verb;
    std::uint64_t sent_ns;
    std::uint64_t index;
  };
  std::map<std::uint64_t, Pending> inflight;
  std::uint64_t tag = 0;
  std::uint64_t last_done = 0;  // 0 until the first response
  std::string line;
  const std::uint64_t sample_slot = seed % 64;
  for (;;) {
    while (inflight.size() < w.window && now_ns() < t_end) {
      Pending p{kAddUser, 0, 0};
      std::string req = "@" + std::to_string(++tag) + " ";
      if (w.name == "encrypt_read") {
        p.verb = kEncrypt;
        p.index = index_base + (conn_no << 32) + tag;
        req += "encrypt " + dd::hex_encode(payloads.make(p.index));
      } else if (!active.empty() && rng() % 10 == 0) {
        const std::size_t k = rng() % active.size();
        p.verb = kRevoke;
        req += "revoke " + std::to_string(active[k]);
        active[k] = active.back();
        active.pop_back();
      } else {
        req += "add-user";
      }
      p.sent_ns = now_ns();
      if (last_done != 0) s.late_us.push_back(us_between(last_done, p.sent_ns));
      c.send(req);
      ++s.attempted;
      inflight.emplace(tag, p);
    }
    if (inflight.empty()) break;
    if (!c.recv(line, kTimeoutMs)) throw std::runtime_error("request timed out");
    const std::uint64_t done = now_ns();
    last_done = done;
    const dd::Response r = parse(line);
    const auto it = r.id ? inflight.find(*r.id) : inflight.end();
    if (it == inflight.end()) {
      throw std::runtime_error("response to no request: " + line.substr(0, 120));
    }
    const Pending p = it->second;
    inflight.erase(it);
    if (!r.ok) {
      note_failure(s, std::string(kVerbName[p.verb]) + ": " + r.error);
      continue;
    }
    s.add(p.verb, us_between(p.sent_ns, done));
    if (done <= t_end) {
      ++s.completed;
      s.completed_ns = std::max(s.completed_ns, done);
    }
    g_spans.add({kVerbName[p.verb], *r.id, p.sent_ns, p.sent_ns, done});
    if (p.verb == kAddUser) active.push_back(u64_field(r, "id"));
    if (p.verb == kRevoke && !field(r, "bundles").empty()) ++s.publishes;
    if (p.verb == kEncrypt) {
      ++s.publishes;
      if (*r.id % 64 == sample_slot && ct_samples.size() < 8) {
        ct_samples.push_back({p.index, field(r, "ct")});
      }
    }
  }
}

// ---- open loop (broadcast_feed) ------------------------------------------------

/// One control connection on a fixed schedule: an encrypt every 20 ms and,
/// 10 ms after every 25th, a new-period. Latencies run from the due time.
/// Fills `encrypts` (payload index, due) and `periods` (period, due) for
/// the delivery check.
void open_loop(const Payloads& payloads, std::uint64_t index_base,
               std::uint64_t t0, std::uint64_t t_end, Samples& s,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>& encrypts,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>& periods) {
  Conn c(kSocket);
  struct Pending {
    Verb verb;
    std::uint64_t due_ns;
    std::uint64_t index;
  };
  std::mutex mu;
  std::map<std::uint64_t, Pending> inflight;
  std::string reader_error;
  // The untagged `ping` the sender ends with is answered only after every
  // tagged request (protocol barrier), so its response ends the reader.
  std::thread reader([&] {
    std::string line;
    try {
      for (;;) {
        if (!c.recv(line, kTimeoutMs)) throw std::runtime_error("request timed out");
        const std::uint64_t done = now_ns();
        const dd::Response r = parse(line);
        if (!r.id) break;
        std::lock_guard lk(mu);
        const auto it = inflight.find(*r.id);
        if (it == inflight.end()) throw std::runtime_error("response to no request");
        const Pending p = it->second;
        inflight.erase(it);
        if (!r.ok) {
          note_failure(s, std::string(kVerbName[p.verb]) + ": " + r.error);
          continue;
        }
        s.add(p.verb, us_between(p.due_ns, done));
        ++s.publishes;
        if (done <= t_end) {
          ++s.completed;
          s.completed_ns = std::max(s.completed_ns, done);
        }
        g_spans.add({kVerbName[p.verb], *r.id, p.due_ns, p.due_ns, done});
        if (p.verb == kEncrypt) {
          encrypts.emplace_back(p.index, p.due_ns);
        } else {
          periods.emplace_back(u64_field(r, "period"), p.due_ns);
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard lk(mu);
      reader_error = e.what();
    }
  });
  std::uint64_t tag = 0;
  const auto send_at = [&](std::uint64_t due, Verb verb, std::uint64_t index,
                           const std::string& req) {
    sleep_until_ns(due);
    const std::uint64_t sent = now_ns();
    {
      std::lock_guard lk(mu);
      inflight.emplace(tag, Pending{verb, due, index});
      s.late_us.push_back(us_between(due, sent));
      ++s.attempted;
    }
    c.send(req);
  };
  try {
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t due = t0 + k * kOpenLoopPeriodNs;
      if (due >= t_end) break;
      const std::uint64_t index = index_base + k;
      ++tag;
      send_at(due, kEncrypt, index,
              "@" + std::to_string(tag) + " encrypt " +
                  dd::hex_encode(payloads.make(index)));
      if ((k + 1) % kNewPeriodEvery == 0) {
        ++tag;
        send_at(due + kOpenLoopPeriodNs / 2, kNewPeriod, 0,
                "@" + std::to_string(tag) + " new-period");
      }
    }
    c.send("ping");
  } catch (...) {
    c.shutdown();
    reader.join();
    throw;
  }
  reader.join();
  if (!reader_error.empty()) throw std::runtime_error(reader_error);
}

/// Deliveries of one open-loop phase: for each acked encrypt, due time to
/// the last subscriber's decrypt; for each new-period, due time to the
/// last subscriber's applied reset. A frame some subscriber never got is a
/// failure.
void collect_deliveries(
    Fixture& f, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& encrypts,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& periods,
    Samples& s) {
  // After the first miss the rest are only collected, not waited for.
  int timeout = kTimeoutMs;
  for (const auto& [index, due] : encrypts) {
    std::uint64_t last = 0;
    bool all = true;
    for (auto& sub : f.subs) {
      ++s.attempted;
      const auto t = sub->wait_decrypted(index, timeout);
      if (!t) {
        all = false;
        timeout = 0;
        note_failure(s, "a subscriber missed payload " + std::to_string(index));
        continue;
      }
      last = std::max(last, *t);
    }
    if (all) s.deliver_us.push_back(us_between(due, last));
  }
  for (const auto& [period, due] : periods) {
    std::uint64_t last = 0;
    bool all = true;
    for (auto& sub : f.subs) {
      ++s.attempted;
      const auto t = sub->wait_applied(period, timeout);
      if (!t) {
        all = false;
        timeout = 0;
        note_failure(s, "a subscriber missed the reset to period " +
                            std::to_string(period));
        continue;
      }
      last = std::max(last, *t);
    }
    if (all) s.rekey_us.push_back(us_between(due, last));
  }
}

// ---- one measured phase --------------------------------------------------------

struct Phase {
  Samples s;
  std::uint64_t t0 = 0, t_end = 0;
  std::vector<CtSample> ct_samples;
};

Phase run_phase(const Workload& w, const Payloads& payloads, std::uint64_t seed,
                Fixture& f, std::uint64_t index_base, double seconds,
                std::vector<std::vector<std::uint64_t>>& active) {
  Phase ph;
  ph.t0 = now_ns() + 1'000'000;
  ph.t_end = ph.t0 + static_cast<std::uint64_t>(seconds * 1e9);
  if (w.conns == 0) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> encrypts, periods;
    open_loop(payloads, index_base, ph.t0, ph.t_end, ph.s, encrypts, periods);
    collect_deliveries(f, encrypts, periods, ph.s);
    return ph;
  }
  std::vector<Samples> per(w.conns);
  std::vector<std::vector<CtSample>> cts(w.conns);
  std::vector<std::string> errors(w.conns);
  std::vector<std::thread> threads;
  sleep_until_ns(ph.t0);
  for (std::size_t i = 0; i < w.conns; ++i) {
    threads.emplace_back([&, i] {
      try {
        closed_loop_conn(w, payloads, seed, i, index_base, ph.t_end,
                         std::move(active[i]), per[i], cts[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < w.conns; ++i) {
    if (!errors[i].empty()) throw std::runtime_error(errors[i]);
    ph.s.merge(per[i]);
    ph.ct_samples.insert(ph.ct_samples.end(), cts[i].begin(), cts[i].end());
  }
  // Ids a connection added stay revocable by the next phase.
  active.assign(w.conns, {});
  return ph;
}

// ---- the probe tail ------------------------------------------------------------

/// /metrics around each verb's probe window (traced runs only).
struct Window {
  Prom before, after;
  std::uint64_t ok = 0;  // acked requests of the window's verb
  double delta(std::string_view name, std::string_view m1 = {},
               std::string_view m2 = {}) const {
    return prom_sum(after, name, m1, m2) - prom_sum(before, name, m1, m2);
  }
};

struct Probe {
  Samples s;
  Window win[kVerbs];
  std::vector<double> frame_us;
};

/// Sequential, one request at a time on an otherwise idle daemon: 32
/// add-users, 64 encrypts of 256 bytes watched through a fresh subscriber
/// (deliver), 16 revokes, one more encrypt that the first revoked key must
/// fail to open and the subscriber must open, then 8 new-periods watched
/// through the subscriber (rekey). It gives every verb's latency on every
/// workload and pure per-verb windows for the counter ratios.
Probe run_probe(const Payloads& small, int port, bool traced) {
  Probe pr;
  Samples& s = pr.s;
  Conn c(kSocket);
  const auto snap = [&](Verb v, bool after) {
    if (!traced) return;
    (after ? pr.win[v].after : pr.win[v].before) = scrape(port);
  };
  const auto timed = [&](Verb v, const std::string& req, dd::Response& r) {
    const std::uint64_t sent = now_ns();
    const std::string line = request(c, req);
    const std::uint64_t done = now_ns();
    ++s.attempted;
    r = parse(line);
    if (!r.ok) {
      note_failure(s, std::string("probe ") + kVerbName[v] + ": " + r.error);
      return sent;
    }
    s.add(v, us_between(sent, done));
    ++pr.win[v].ok;
    g_spans.add({kVerbName[v], kProbeBase, sent, sent, done});
    return sent;
  };
  dd::Response r;

  std::vector<IssuedKey> keys;
  snap(kAddUser, false);
  for (int i = 0; i < 32; ++i) {
    timed(kAddUser, "add-user", r);
    if (r.ok) keys.push_back(issued_key(r));
  }
  snap(kAddUser, true);
  std::vector<const IssuedKey*> shard0;
  for (const IssuedKey& k : keys) {
    if (k.shard == 0) shard0.push_back(&k);
  }
  if (shard0.size() < 2) throw std::runtime_error("probe: too few shard-0 keys");
  const IssuedKey& watcher = *shard0[0];
  const IssuedKey& victim = *shard0[1];
  Subscriber sub(watcher, small);

  snap(kEncrypt, false);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t index = kProbeBase + i;
    const std::uint64_t sent = timed(
        kEncrypt, "encrypt " + dd::hex_encode(small.make(index)) + " 0", r);
    if (!r.ok) continue;
    ++s.attempted;
    if (const auto t = sub.wait_decrypted(index, kTimeoutMs)) {
      s.deliver_us.push_back(us_between(sent, *t));
    } else {
      note_failure(s, "probe subscriber missed payload " + std::to_string(index));
    }
  }
  snap(kEncrypt, true);

  std::vector<Bytes> victim_bundles;
  snap(kRevoke, false);
  std::size_t revoked = 0;
  for (const IssuedKey& k : keys) {
    if (revoked == 16) break;
    if (&k == &watcher || (revoked == 0 && &k != &victim)) continue;
    timed(kRevoke, "revoke " + std::to_string(k.id), r);
    ++revoked;
    if (r.ok && k.shard == victim.shard) {
      const std::string bundles = field(r, "bundles");
      for (const std::string_view hex : split_commas(bundles)) {
        victim_bundles.push_back(unhex(hex));
      }
    }
  }
  snap(kRevoke, true);

  // The revoked key, brought up to date with every reset it saw, must not
  // open a fresh ciphertext; the subscriber must.
  {
    const std::uint64_t index = kProbeBase + 1000;
    const dd::Response er =
        parse(request(c, "encrypt " + dd::hex_encode(small.make(index)) + " 0"));
    s.attempted += 2;
    if (!er.ok) throw std::runtime_error("probe encrypt: " + er.error);
    const dfky::KeyFileData kd = dfky::decode_key_file(victim.file);
    dfky::Receiver rx(kd.sp, kd.key, kd.manager_vk);
    for (const Bytes& raw : victim_bundles) {
      dfky::Reader rd(raw);
      (void)rx.apply_reset(dfky::SignedResetBundle::deserialize(rd, kd.sp.group));
    }
    const Bytes ct = unhex(field(er, "ct"));
    dfky::Reader rd(ct);
    const dfky::ContentMessage msg =
        dfky::ContentMessage::deserialize(rd, kd.sp.group);
    bool opened = false;
    try {
      opened = small.matches(dfky::open_content(kd.sp, rx.key(), msg));
    } catch (const dfky::Error&) {
    }
    if (opened) note_failure(s, "a revoked key opened a fresh ciphertext");
    if (!sub.wait_decrypted(index, kTimeoutMs)) {
      note_failure(s, "an active key did not open a fresh ciphertext");
    }
  }

  snap(kNewPeriod, false);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t sent = timed(kNewPeriod, "new-period", r);
    if (!r.ok) continue;
    ++s.attempted;
    if (const auto t = sub.wait_applied(u64_field(r, "period"), kTimeoutMs)) {
      s.rekey_us.push_back(us_between(sent, *t));
    } else {
      note_failure(s, "probe subscriber missed a reset");
    }
  }
  snap(kNewPeriod, true);
  sub.stop();
  s.failed += sub.failures();
  pr.frame_us = sub.frame_us();
  return pr;
}

// ---- output --------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

struct Metric {
  double value;
  std::string unit;
};

std::string fs_type(const char* path) {
  struct statfs st {};
  if (::statfs(path, &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// git describe of the daemon, from its dfky_build_info gauge.
std::string daemon_git(const Prom& p) {
  for (auto it = p.lower_bound("dfky_build_info{"); it != p.end(); ++it) {
    if (!it->first.starts_with("dfky_build_info{")) break;
    const std::size_t g = it->first.find("git=\"");
    if (g == std::string::npos) continue;
    const std::size_t e = it->first.find('"', g + 5);
    return it->first.substr(g + 5, e - g - 5);
  }
  return "unknown";
}

struct Args {
  std::string workload, dfkyd, work_dir, spans;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dfkyd") {
      a.dfkyd = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      throw std::runtime_error("unknown flag " + k);
    }
  }
  if (a.workload.empty() || a.dfkyd.empty() || a.work_dir.empty() ||
      !(a.seconds > 0)) {
    throw std::runtime_error(
        "usage: perfload --workload W --seed N --seconds S --trace 0|1 "
        "--dfkyd PATH --work-dir DIR [--spans FILE]");
  }
  return a;
}

int run(const Args& a) {
  const std::optional<Workload> wo = workload_named(a.workload);
  if (!wo) throw std::runtime_error("unknown workload " + a.workload);
  const Workload& w = *wo;
  std::filesystem::create_directories(a.work_dir);
  std::filesystem::current_path(a.work_dir);
  const Payloads payloads(a.seed, w.payload_bytes);
  const Payloads small(a.seed + 1, 256);

  // Set-up: untraced runs time kSetups complete set-ups and keep the last.
  std::vector<double> setup_s;
  Fixture f;
  const int setups = a.trace ? 1 : kSetups;
  bool clean = true;
  for (int i = 0; i < setups; ++i) {
    const std::uint64_t t = now_ns();
    f = set_up(w, a.dfkyd, a.seed, payloads);
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    if (i + 1 < setups) clean = tear_down(f) && clean;
  }
  const int port = f.daemon->metrics_port();

  // Pre-issued keys are split across the closed-loop connections as their
  // first revocation candidates; the remaining ones stay active.
  std::vector<std::vector<std::uint64_t>> active(std::max<std::size_t>(w.conns, 1));
  if (w.name == "mutate_ack") {
    for (std::size_t i = 0; i < f.keys.size(); ++i) {
      active[i % w.conns].push_back(f.keys[i].id);
    }
  }

  Samples total;
  Phase measured, untraced;
  Window load;  // /metrics around the reported measured phase
  if (a.trace) {
    untraced = run_phase(w, payloads, a.seed, f, 0, a.seconds / 2, active);
    total.merge(untraced.s);
    g_spans.enable();
    load.before = scrape(port);
    measured = run_phase(w, payloads, a.seed, f, kTracedBase, a.seconds / 2, active);
    load.after = scrape(port);
  } else {
    measured = run_phase(w, payloads, a.seed, f, 0, a.seconds, active);
  }
  total.merge(measured.s);

  // Oracle, encrypt_read: a seeded sample of the returned ciphertexts must
  // open, under the key issued at set-up, to exactly their payloads.
  if (w.name == "encrypt_read") {
    const dfky::KeyFileData kd = dfky::decode_key_file(f.keys[0].file);
    std::vector<CtSample> cts = measured.ct_samples;
    cts.insert(cts.end(), untraced.ct_samples.begin(), untraced.ct_samples.end());
    for (const CtSample& c : cts) {
      ++total.attempted;
      try {
        const Bytes ct = unhex(c.ct_hex);
        dfky::Reader rd(ct);
        const Bytes pt = dfky::open_content(
            kd.sp, kd.key, dfky::ContentMessage::deserialize(rd, kd.sp.group));
        if (pt != payloads.make(c.index)) note_failure(total, "wrong plaintext");
      } catch (const std::exception& e) {
        note_failure(total, std::string("sampled ciphertext: ") + e.what());
      }
    }
    if (cts.empty()) note_failure(total, "no ciphertext was sampled");
  }

  Conn ctl(kSocket);
  // Oracle, broadcast_feed: every subscriber ends current in the final
  // period, with no frame it failed on.
  if (!f.subs.empty()) {
    const std::uint64_t period = u64_field(parse(request(ctl, "status")), "period");
    for (auto& sub : f.subs) {
      ++total.attempted;
      if (sub->period() != period) note_failure(total, "a subscriber is not current");
      total.failed += sub->failures();
    }
  }
  std::vector<double> frame_us;
  for (auto& sub : f.subs) {
    const std::vector<double> fr = sub->frame_us();
    frame_us.insert(frame_us.end(), fr.begin(), fr.end());
  }
  f.subs.clear();

  const Probe pr = run_probe(small, port, a.trace);
  total.merge(pr.s);
  if (frame_us.empty()) frame_us = pr.frame_us;

  // Oracle, every workload: status active/revoked equal the acked verbs.
  {
    const dd::Response st = parse(request(ctl, "status"));
    const std::uint64_t adds = w.prekeys + total.ok[kAddUser];
    const std::uint64_t revokes = total.ok[kRevoke];
    ++total.attempted;
    if (u64_field(st, "active") != adds - revokes ||
        u64_field(st, "revoked") != revokes) {
      note_failure(total, "status active=" + field(st, "active") + " revoked=" +
                              field(st, "revoked") + ", acked adds=" +
                              std::to_string(adds) + " revokes=" +
                              std::to_string(revokes));
    }
  }
  const Prom final_prom = scrape(port);
  std::string daemon_trace;
  if (a.trace) daemon_trace = http_get(port, "/trace");
  clean = f.daemon->stop() && clean;
  ++total.attempted;
  if (!clean) note_failure(total, "dfkyd did not exit cleanly");

  const Samples& m = measured.s;
  const auto pick = [&](Verb v) -> const std::vector<double>& {
    return m.verb_us[v].empty() ? pr.s.verb_us[v] : m.verb_us[v];
  };
  const std::vector<double>& deliver = m.deliver_us.empty() ? pr.s.deliver_us : m.deliver_us;
  const std::vector<double>& rekey = m.rekey_us.empty() ? pr.s.rekey_us : m.rekey_us;
  // Rates are over the time the phase took to complete its in-window
  // requests, so an open loop's rate reads what it achieved, not its
  // schedule.
  const double window_s =
      static_cast<double>(std::max(m.completed_ns, measured.t0 + 1) - measured.t0) / 1e9;

  std::map<std::string, Metric> out;
  std::map<std::string, std::string> source;
  std::map<std::string, std::size_t> samples;
  const auto put_q = [&](const std::string& name, const std::vector<double>& v,
                         double q, bool from_load) {
    out[name] = {quantile(v, q), "us"};
    source[name] = from_load ? "load" : "probe";
    samples[name] = v.size();
  };
  if (!a.trace) {
    out["ops_per_s"] = {static_cast<double>(m.completed) / window_s, "1/s"};
    put_q("req_p50_us", m.all_us, 0.5, true);
    out["setup_s"] = {quantile(setup_s, 0.5), "s"};
  } else {
    // The request tail and the per-verb latencies (from the measured phase
    // when the workload's mix has the verb, else from the probe tail; see
    // `sources` in the info line) swing too far between runs on a shared
    // host to carry a bound, so they are traced-run numbers.
    put_q("req_p99_us", m.all_us, 0.99, true);
    put_q("encrypt_p50_us", pick(kEncrypt), 0.5, !m.verb_us[kEncrypt].empty());
    put_q("add_user_p50_us", pick(kAddUser), 0.5, !m.verb_us[kAddUser].empty());
    put_q("revoke_p50_us", pick(kRevoke), 0.5, !m.verb_us[kRevoke].empty());
    put_q("new_period_p50_us", pick(kNewPeriod), 0.5, !m.verb_us[kNewPeriod].empty());
    put_q("deliver_p50_us", deliver, 0.5, !m.deliver_us.empty());
    put_q("deliver_p99_us", deliver, 0.99, !m.deliver_us.empty());
    put_q("rekey_p50_us", rekey, 0.5, !m.rekey_us.empty());
    const LayerSizes sizes{w.payload_bytes, w.shards, kWorkers};
    const std::map<std::string, double> layers =
        run_layers(sizes, a.seed, "layers");
    for (const auto& [k, v] : layers) {
      out[k] = {v, k.find("_us") != std::string::npos ? "us" : "ratio"};
      source[k] = "inprocess";
    }
    const auto ratio = [](double n, double d) { return d > 0 ? n / d : 0.0; };
    // Per-verb counts come from a window that ran only that verb: the
    // measured phase on encrypt_read, the probe window otherwise.
    const bool pure_encrypt = w.name == "encrypt_read";
    const Window enc = pure_encrypt
                           ? Window{load.before, load.after, m.ok[kEncrypt]}
                           : pr.win[kEncrypt];
    const auto exact = [&](const std::string& name, double n, double d,
                           const char* src) {
      out[name] = {ratio(n, d), "count"};
      source[name] = src;
      samples[name] = static_cast<std::size_t>(d);
    };
    const char* enc_src = pure_encrypt ? "load" : "probe";
    exact("group.pow_per_encrypt", enc.delta("dfky_group_pow_total"),
          static_cast<double>(enc.ok), enc_src);
    exact("group.fixedbase_pow_per_encrypt", enc.delta("dfky_fixedbase_pow_total"),
          static_cast<double>(enc.ok), enc_src);
    exact("group.multiexp_per_revoke",
          pr.win[kRevoke].delta("dfky_group_multiexp_total"),
          static_cast<double>(pr.win[kRevoke].ok), "probe");
    exact("group.pow_per_add_user", pr.win[kAddUser].delta("dfky_group_pow_total"),
          static_cast<double>(pr.win[kAddUser].ok), "probe");

    // Load-dependent ratios: the measured phase when it exercised the
    // layer, else the probe window that does.
    const double acked =
        static_cast<double>(m.ok[kAddUser] + m.ok[kRevoke] + m.ok[kNewPeriod]);
    const bool load_commits = load.delta("dfkyd_commit_batches_total") > 0;
    const Window& cw = load_commits ? load : pr.win[kAddUser];
    const char* c_src = load_commits ? "load" : "probe";
    out["group_commit.mutations_per_batch"] = {
        ratio(cw.delta("dfkyd_commit_mutations_total"),
              cw.delta("dfkyd_commit_batches_total")), "count"};
    source["group_commit.mutations_per_batch"] = c_src;
    out["group_commit.batch_us"] = {
        ratio(cw.delta("dfkyd_commit_batch_ns_sum"),
              cw.delta("dfkyd_commit_batch_ns_count")) / 1e3, "us"};
    source["group_commit.batch_us"] = c_src;
    const bool load_acks = acked > 0;
    const Window& aw = load_acks ? load : pr.win[kAddUser];
    out["store.wal_appends_per_ack"] = {
        ratio(aw.delta("dfky_store_group_commits_total"),
              load_acks ? acked : static_cast<double>(aw.ok)), "count"};
    source["store.wal_appends_per_ack"] = load_acks ? "load" : "probe";
    out["store.wal_append_us"] = {
        ratio(aw.delta("dfky_store_wal_append_ns_sum"),
              aw.delta("dfky_store_wal_append_ns_count")) / 1e3, "us"};
    source["store.wal_append_us"] = load_acks ? "load" : "probe";
    const bool load_feed = m.publishes > 0;
    const Window& fw = load_feed ? load : pr.win[kEncrypt];
    out["feed.broadcast_us"] = {
        ratio(fw.delta("dfkyd_feed_broadcast_ns_sum"),
              fw.delta("dfkyd_feed_broadcast_ns_count")) / 1e3, "us"};
    source["feed.broadcast_us"] = load_feed ? "load" : "probe";
    out["feed.frames_per_publish"] = {
        ratio(fw.delta("dfkyd_feed_frames_total"),
              load_feed ? static_cast<double>(m.publishes)
                        : static_cast<double>(fw.ok)), "count"};
    source["feed.frames_per_publish"] = load_feed ? "load" : "probe";
    out["feed.subscribers"] = {
        static_cast<double>(load_feed ? w.subscribers : 1), "count"};
    out["span.frame_us"] = {quantile(frame_us, 0.5), "us"};
    samples["span.frame_us"] = frame_us.size();

    // Served vs in-process: reactor overhead per verb and the ROADMAP
    // item 1 yardstick.
    static constexpr const char* kHandler[kVerbs] = {
        "handler.encrypt_us", "handler.add_user_us", "handler.revoke_us",
        "handler.new_period_us"};
    for (std::size_t v = 0; v < kVerbs; ++v) {
      out[std::string("reactor.overhead_us.") + kVerbName[v]] = {
          quantile(pick(static_cast<Verb>(v)), 0.5) - layers.at(kHandler[v]),
          "us"};
    }
    const double served_rate =
        pure_encrypt ? static_cast<double>(m.completed) / window_s
                     : 1e6 / quantile(pr.s.verb_us[kEncrypt], 0.5);
    out["shard.served_over_inprocess"] = {
        served_rate / (kWorkers * 1e6 / layers.at("shard.encrypt_us")), "ratio"};
    out["loadgen.late_p99_us"] = {quantile(m.late_us, 0.99), "us"};
    samples["loadgen.late_p99_us"] = m.late_us.size();
    out["trace.req_p50_ratio"] = {
        ratio(quantile(m.all_us, 0.5), quantile(untraced.s.all_us, 0.5)), "ratio"};

    // Raw counter deltas over the measured phase: the bases of the ratios.
    out["count.requests_ok"] = {load.delta("dfkyd_requests_total", "outcome=\"ok\""), "count"};
    out["count.requests_err"] = {load.delta("dfkyd_requests_total", "outcome=\"err\""), "count"};
    out["count.pow"] = {load.delta("dfky_group_pow_total"), "count"};
    out["count.fixedbase_pow"] = {load.delta("dfky_fixedbase_pow_total"), "count"};
    out["count.multiexp"] = {load.delta("dfky_group_multiexp_total"), "count"};
    out["count.wal_appends"] = {load.delta("dfky_store_group_commits_total"), "count"};
    out["count.wal_records"] = {load.delta("dfky_store_wal_appends_total"), "count"};
    out["count.commit_batches"] = {load.delta("dfkyd_commit_batches_total"), "count"};
    out["count.commit_mutations"] = {load.delta("dfkyd_commit_mutations_total"), "count"};
    out["count.feed_frames"] = {load.delta("dfkyd_feed_frames_total"), "count"};
  }

  // The generator is valid when it kept its schedule: late p99 under a
  // quarter of the 20 ms open-loop period (closed loops are always valid).
  const double late_p99 = quantile(m.late_us, 0.99);
  const bool schedule_ok =
      w.conns > 0 || late_p99 < static_cast<double>(kOpenLoopPeriodNs) / 4e3;
  if (!schedule_ok) {
    std::fprintf(stderr, "perfload: generator fell behind (late p99 %.0f us)\n",
                 late_p99);
  }

  std::string info = "{\"info\":{\"workload\":" + quoted(w.name) +
                     ",\"seed\":" + std::to_string(a.seed) +
                     ",\"seconds\":" + num(a.seconds) +
                     ",\"trace\":" + (a.trace ? "1" : "0") +
                     ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                     ",\"store_fs\":" + quoted(fs_type(".")) +
                     ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
                     ",\"group\":\"sec512\",\"v\":" + std::to_string(kV) +
                     ",\"shards\":" + std::to_string(w.shards) +
                     ",\"workers\":" + std::to_string(kWorkers) +
                     ",\"payload_bytes\":" + std::to_string(w.payload_bytes) +
                     ",\"probe_payload_bytes\":256" +
                     ",\"subscribers\":" + std::to_string(w.subscribers) +
                     ",\"dfkyd_git\":" + quoted(daemon_git(final_prom)) +
                     ",\"schedule_valid\":" + (schedule_ok ? "true" : "false") +
                     ",\"loadgen_late_p99_us\":" + num(late_p99) +
                     ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    info += (i ? "," : "") + num(setup_s[i]);
  }
  info += "],\"sources\":{";
  bool first = true;
  for (const auto& [k, v] : source) {
    info += (first ? "" : ",") + quoted(k) + ":" + quoted(v);
    first = false;
  }
  info += "},\"samples\":{";
  first = true;
  for (const auto& [k, v] : samples) {
    info += (first ? "" : ",") + quoted(k) + ":" + std::to_string(v);
    first = false;
  }
  info += "}}}";
  std::printf("%s\n", info.c_str());

  if (a.trace && !a.spans.empty()) {
    g_spans.write(a.spans, measured.t0, daemon_trace);
  }

  const bool correct = total.failed == 0;
  std::string res = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(total.attempted) +
                    ",\"failed\":" + std::to_string(total.failed) +
                    ",\"metrics\":{";
  first = true;
  for (const auto& [k, v] : out) {
    res += (first ? "" : ",") + quoted(k) + ":{\"value\":" + num(v.value) +
           ",\"unit\":" + quoted(v.unit) + "}";
    first = false;
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfload: %s\n", e.what());
    return 2;
  }
}
