#include "client/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace dfky::client {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& what, int err = errno) {
  throw ConnError(what + ": " + std::strerror(err));
}

bool transient_connect_errno(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == ECONNRESET || err == ETIMEDOUT;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("send");
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

}  // namespace

Conn::Conn(const std::string& path, RetryPolicy retry) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw ConnError("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  std::uint64_t delay_ms = retry.base_ms;
  // Deterministic per-process jitter stream; enough to de-synchronize a
  // herd of scripted clients hammering a restarting daemon.
  std::uint32_t jitter_state =
      static_cast<std::uint32_t>(::getpid()) * 2654435761u + 1u;
  for (std::uint64_t attempt = 1;; ++attempt) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return;
    }
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    if (!transient_connect_errno(err) || attempt >= retry.max_attempts) {
      throw ConnError("cannot connect to " + path + ": " +
                      std::strerror(err) + " (is dfkyd running?" +
                      (retry.max_attempts > 1
                           ? " gave up after " + std::to_string(attempt) +
                                 " attempts"
                           : "") +
                      ")");
    }
    jitter_state = jitter_state * 1664525u + 1013904223u;
    const std::uint64_t jitter = jitter_state % (delay_ms / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms + jitter));
    delay_ms = std::min<std::uint64_t>(delay_ms * 2, 500);
  }
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::Conn(Conn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), framer_(std::move(other.framer_)) {}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    framer_ = std::move(other.framer_);
  }
  return *this;
}

void Conn::send(std::string_view line) {
  std::string out;
  out.reserve(line.size() + 1);
  out.append(line);
  out += '\n';
  send_all(fd_, out);
}

std::optional<std::string> Conn::recv(int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (std::optional<std::string> line = framer_.next()) return line;
    if (framer_.overflowed()) {
      throw ConnError("daemon sent a line over " +
                      std::to_string(daemon::kMaxLineBytes) + " bytes");
    }
    if (timeout_ms > 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(left.count()));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) fail("poll");
      if (r == 0) continue;  // the deadline check above ends the wait
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    // A peer that closes with our bytes still unread resets the
    // connection instead of ending it; both mean the daemon is gone.
    if (n == 0 || (n < 0 && errno == ECONNRESET)) {
      throw ConnError("daemon closed the connection");
    }
    if (n < 0) fail("recv");
    framer_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
}

std::string Conn::request(std::string_view line, int timeout_ms) {
  send(line);
  std::optional<std::string> out = recv(timeout_ms);
  if (!out) {
    throw ConnError("no answer to '" + std::string(line.substr(0, 40)) +
                    "' within " + std::to_string(timeout_ms) + " ms");
  }
  return std::move(*out);
}

void Conn::shutdown() { ::shutdown(fd_, SHUT_RDWR); }

std::vector<std::string> pipeline(Conn& c,
                                  const std::vector<std::string>& requests,
                                  std::size_t window) {
  if (window == 0) throw ContractError("pipeline: window must be positive");
  std::vector<std::optional<std::string>> answers(requests.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t received = 0;  // guarded by mu
  bool stop = false;         // guarded by mu

  // Writer on its own thread, reader on this one: the two never block
  // each other, so a full socket buffer cannot deadlock the client the way
  // write-then-read lockstep with a large window would. A failed send ends
  // the writer; the reader then sees the daemon's EOF.
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        {
          std::unique_lock lk(mu);
          cv.wait(lk, [&] { return i < received + window || stop; });
          if (stop) return;
        }
        std::string req = std::to_string(i);
        req.insert(0, 1, '@');
        c.send(req.append(" ").append(requests[i]));
      }
    } catch (const ConnError&) {
    }
  });

  std::exception_ptr failure;
  try {
    for (std::size_t got = 0; got < requests.size(); ++got) {
      std::string line;
      try {
        line = *c.recv();
      } catch (const ConnError& e) {
        throw ConnError(std::string(e.what()) + " after " +
                        std::to_string(got) + " of " +
                        std::to_string(requests.size()) + " answers");
      }
      const std::optional<daemon::Response> r = daemon::parse_response(line);
      if (!r || !r->id) {
        throw ConnError("malformed pipelined answer: " + line.substr(0, 80));
      }
      if (*r->id >= answers.size() || answers[*r->id]) {
        throw ConnError("answer id " + std::to_string(*r->id) +
                        (*r->id < answers.size() ? " duplicated"
                                                 : " never requested"));
      }
      answers[*r->id] = line.substr(line.find(' ') + 1);
      {
        std::lock_guard lk(mu);
        received = got + 1;
      }
      cv.notify_all();
    }
  } catch (...) {
    failure = std::current_exception();
  }
  {
    std::lock_guard lk(mu);
    stop = true;
  }
  cv.notify_all();
  sender.join();
  if (failure) std::rethrow_exception(failure);

  std::vector<std::string> out;
  out.reserve(answers.size());
  for (std::optional<std::string>& a : answers) out.push_back(std::move(*a));
  return out;
}

daemon::Response subscribe(Conn& c, std::optional<std::uint64_t> from_period,
                           int timeout_ms) {
  std::string req = "subscribe";
  if (from_period) req.append(" ").append(std::to_string(*from_period));
  const std::string line = c.request(req, timeout_ms);
  std::optional<daemon::Response> r = daemon::parse_response(line);
  if (!r) throw ConnError("malformed answer to subscribe: " + line);
  return std::move(*r);
}

std::string http_get(const std::string& host, int port,
                     const std::string& path) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ConnError("not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  std::string out;
  try {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      fail("cannot connect to http://" + host + ":" + std::to_string(port));
    }
    send_all(fd, "GET " + path + " HTTP/1.0\r\n\r\n");
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) fail("recv " + path);
      if (n == 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  const std::size_t body = out.find("\r\n\r\n");
  if (body == std::string::npos || !out.starts_with("HTTP/1.0 200")) {
    throw ConnError("bad answer to GET " + path + ": " +
                    out.substr(0, out.find('\r')));
  }
  return out.substr(body + 4);
}

std::vector<PromSample> parse_prometheus(std::string_view text) {
  std::vector<PromSample> out;
  while (!text.empty()) {
    const std::size_t eol = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    if (line.empty() || line[0] == '#') continue;
    PromSample s;
    std::size_t pos = line.find_first_of("{ ");
    if (pos == std::string_view::npos) continue;
    s.name = line.substr(0, pos);
    if (line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      if (close == std::string_view::npos) continue;
      std::size_t at = pos + 1;
      while (at < close) {
        const std::size_t eq = line.find('=', at);
        if (eq == std::string_view::npos || eq >= close) break;
        if (eq + 1 >= close || line[eq + 1] != '"') break;
        const std::size_t vend = line.find('"', eq + 2);
        if (vend == std::string_view::npos || vend > close) break;
        s.labels[std::string(line.substr(at, eq - at))] =
            line.substr(eq + 2, vend - eq - 2);
        at = vend + 1;
        if (at < close && line[at] == ',') ++at;
      }
      pos = close + 1;
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) continue;
    const std::string value(line.substr(pos));
    char* end = nullptr;
    s.value = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace dfky::client
