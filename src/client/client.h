// Client side of the dfkyd wire (DESIGN.md Sect. 10, 11, 13, 16): one
// blocking line connection to the daemon's unix socket, tagged pipelining
// and the `subscribe` stream on top of it, and the loopback `GET /metrics`
// scrape with a parser for its Prometheus text. Every tool, bench and test
// that talks to a dfkyd goes through here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
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
