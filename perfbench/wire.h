// Client side of the dfkyd wire for the served-path benchmark: blocking
// unix-socket line connections, the loopback GET /metrics and GET /trace
// scrape, and a Prometheus text parser for counter deltas.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// steady_clock, in nanoseconds.
std::uint64_t now_ns();

/// One blocking newline-protocol connection to dfkyd. Throws
/// std::runtime_error on connect/send/recv failure and on EOF.
class Conn {
 public:
  explicit Conn(const std::string& socket_path);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends `line` and its terminating LF.
  void send(std::string_view line);
  /// The next line without its LF. Returns false when `timeout_ms` (> 0)
  /// passed first; 0 waits forever.
  bool recv(std::string& line, int timeout_ms = 0);
  /// Shuts both directions down, waking a thread blocked in recv().
  void shutdown();

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;   // first unreturned byte
  std::size_t scan_ = 0;  // LF scan resume point
};

/// One untagged request and its response line (30 s timeout).
std::string request(Conn& c, std::string_view line);

/// The body of GET `path` from the daemon's loopback metrics port.
std::string http_get(int port, const std::string& path);

/// Prometheus text exposition: series key as printed ("name{labels}") ->
/// value.
using Prom = std::map<std::string, double>;
Prom parse_prom(const std::string& text);
/// Sum over every series of metric `name` whose key contains both `m1`
/// and `m2` (empty: no constraint).
double prom_sum(const Prom& p, std::string_view name,
                std::string_view m1 = {}, std::string_view m2 = {});

}  // namespace perfbench
