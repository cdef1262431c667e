// Client side of the dfkyd wire (DESIGN.md Sect. 7.3, 10, 11, 13, 16): one
// blocking line connection to the daemon's unix socket, tagged pipelining,
// the `subscribe` stream, the one consumer of its `bcast` frames
// (apply_frame) and a receiver's catch-up on top of it, and the loopback
// `GET /metrics` scrape with a parser for its Prometheus text.
// Every tool, bench and test that talks to a dfkyd goes through here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/receiver.h"
#include "daemon/feed.h"
#include "daemon/protocol.h"

namespace dfky::client {

/// A failed connect, send or receive, the daemon closing the connection, a
/// line over daemon::kMaxLineBytes, or an answer that breaks the protocol.
class ConnError : public Error {
 public:
  explicit ConnError(const std::string& what) : Error(what) {}
};

/// Connect retry policy. A daemon restart or failover window shows up to
/// clients as ECONNREFUSED (socket file exists, nobody listening), ENOENT
/// (socket not recreated yet) or a reset; retrying those with capped
/// exponential backoff and jitter masks the gap. The delay starts at
/// `base_ms` and doubles up to 500 ms; `max_attempts` 0 or 1 tries once.
struct RetryPolicy {
  std::uint64_t base_ms = 25;
  std::uint64_t max_attempts = 1;
};

/// One blocking newline-protocol connection to dfkyd. One thread may
/// send() while another is in recv(); otherwise not thread-safe.
class Conn {
 public:
  /// Connects to the daemon socket at `path`, retrying transient failures
  /// per `retry`. Throws ConnError once the attempts are spent.
  explicit Conn(const std::string& path, RetryPolicy retry = {});
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends `line` and its LF.
  void send(std::string_view line);
  /// The next line without its LF (or CRLF). nullopt when `timeout_ms`
  /// (> 0) passed first; 0 waits for ever. Throws ConnError at EOF, on a
  /// failed read and on a line longer than daemon::kMaxLineBytes.
  std::optional<std::string> recv(int timeout_ms = 0);
  /// send(), then the answer line; throws ConnError when `timeout_ms`
  /// (> 0) passes first.
  std::string request(std::string_view line, int timeout_ms = 0);
  /// Shuts both directions down, waking a thread blocked in recv().
  void shutdown();
  /// For epoll over many connections (bench_feed's subscriber herd).
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  daemon::LineFramer framer_;
};

/// Tagged pipelining (DESIGN.md Sect. 11): sends request i as
/// `@<i> <requests[i]>` with at most `window` (> 0) unanswered at once, and
/// returns the answers by request index, tags stripped. The daemon may
/// answer out of order; the echoed tag, not arrival order, matches an
/// answer to its request. Throws ConnError when the connection fails, or
/// when an answer is malformed, untagged, repeated or for an id never sent.
std::vector<std::string> pipeline(Conn& c,
                                  const std::vector<std::string>& requests,
                                  std::size_t window);

/// Upgrades `c` to a push stream (DESIGN.md Sect. 16): sends `subscribe
/// [from_period]` and returns the daemon's parsed answer. After an `ok`,
/// every recv() is a `bcast ...` frame, the replayed epochs first. Throws
/// ConnError on a malformed answer or when `timeout_ms` (> 0) passes.
daemon::Response subscribe(Conn& c,
                           std::optional<std::uint64_t> from_period = {},
                           int timeout_ms = 0);

/// What apply_frame did with one served `bcast` line.
enum class FrameOutcome : std::uint8_t {
  kOpened = 0,        // content of the receiver's shard, opened
  kNotOpened = 1,     // content of its shard the key cannot open
  kApplied = 2,       // a reset advanced the key
  kStale = 3,         // a reset for a period the key already has
  kGap = 4,           // a reset past a missing period: the receiver is stale
  kCannotFollow = 5,  // the next period's reset, which the key cannot open
  kOtherShard = 6,    // content sealed for another shard
  kMalformed = 7,     // unknown kind, missing field, bad hex or encoding
  kUnauthenticated = 8,  // no bundle of a new-period frame verifies
};

struct FrameResult {
  FrameOutcome outcome = FrameOutcome::kMalformed;
  Bytes payload;  // the opened content (kOpened only)
};

/// The one consumer of served `bcast` lines (DESIGN.md Sect. 16.1): applies
/// `line` to `receiver`, whose key `add-user` issued on shard `shard`.
///  - `bcast encrypt shard=K ... ct=<hex>`: K other than `shard` is
///    kOtherShard; otherwise the ciphertext is opened, and either way its
///    period goes to Receiver::note_content_frame.
///  - `bcast new-period period=P bundles=<hex,...>`: every bundle must
///    parse; each one the receiver's manager key signed is applied and the
///    rest (other shards' bundles, forged ones) are skipped. The outcome is
///    that of the last applied bundle, kUnauthenticated when none verifies.
/// Never throws because of the line's content: a malformed line is
/// kMalformed and leaves the receiver as it was.
FrameResult apply_frame(Receiver& receiver, std::size_t shard,
                        std::string_view line);

/// What one catch-up did to a receiver (DESIGN.md Sect. 7.3).
struct CatchUpReport {
  std::uint64_t period = 0;       // the daemon's period (max over shards)
  std::size_t replayed = 0;       // replayed epoch lines
  std::size_t verdicts = 0;       // eviction verdicts, any shard's
  std::size_t applied = 0;        // bundles that advanced the receiver's key
  std::size_t cannot_follow = 0;  // its shard's bundles its key cannot open
};

/// Applies a catch-up answer to `receiver`: each replayed line through
/// apply_frame, in period order (other shards' bundles fail its manager key
/// and are skipped), then each verdict, which only the receiver's own
/// shard's key makes final (Receiver::apply_eviction). Throws DecodeError
/// on a replayed line that is not a well-formed new-period frame and on a
/// malformed verdict.
CatchUpReport apply_replay(Receiver& receiver, const daemon::FeedReplay& rep);

/// The client's one catch-up path: subscribe() from `receiver.period()`,
/// read the replayed epochs (the answer exactly as ShardRouter::catch_up
/// built it) and apply_replay() them. `c` is a push stream afterwards.
/// Throws ConnError on an `err` answer, a malformed one, a replayed line
/// that is not a new-period frame, or when `timeout_ms` (> 0) passes.
CatchUpReport catch_up(Conn& c, Receiver& receiver, int timeout_ms = 0);

/// The body of `GET <path>` from dfkyd's loopback observability port
/// (`dfkyd --metrics-port`) at IPv4 address `host`. Throws ConnError when
/// the port is unreachable or the answer is not `200`.
std::string http_get(const std::string& host, int port,
                     const std::string& path);

/// One sample line of Prometheus text: `name{k="v",...} value`.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};
/// Parses the text obs::MetricsRegistry::prometheus() writes. Comments,
/// blank and malformed lines are skipped; label values carry no escapes.
std::vector<PromSample> parse_prometheus(std::string_view text);

}  // namespace dfky::client
