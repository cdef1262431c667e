#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
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

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Conn::Conn(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) fail("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int e = errno;
    ::close(fd_);
    fd_ = -1;
    errno = e;
    fail("connect " + socket_path);
  }
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send(std::string_view line) {
  send_all(fd_, line);
  send_all(fd_, "\n");
}

bool Conn::recv(std::string& line, int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl != std::string::npos) {
      line.assign(buf_, pos_, nl - pos_);
      pos_ = scan_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = scan_ = 0;
      } else if (pos_ > (std::size_t{1} << 20)) {
        buf_.erase(0, pos_);
        scan_ -= pos_;
        pos_ = 0;
      }
      return true;
    }
    scan_ = buf_.size();
    if (timeout_ms > 0) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) return false;
      pollfd p{fd_, POLLIN, 0};
      const int r =
          ::poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) fail("poll");
      if (r == 0) return false;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("recv");
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Conn::shutdown() { ::shutdown(fd_, SHUT_RDWR); }

std::string request(Conn& c, std::string_view line) {
  c.send(line);
  std::string out;
  if (!c.recv(out, 30000)) {
    throw std::runtime_error("no response to '" +
                             std::string(line.substr(0, 40)) + "'");
  }
  return out;
}

std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string out;
  try {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      fail("connect to the metrics port");
    }
    send_all(fd, "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n");
    char chunk[65536];
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
    throw std::runtime_error("bad response to GET " + path);
  }
  return out.substr(body + 4);
}

Prom parse_prom(const std::string& text) {
  Prom p;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t e = text.find('\n', i);
    if (e == std::string::npos) e = text.size();
    const std::string_view line(text.data() + i, e - i);
    i = e + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos) continue;
    p[std::string(line.substr(0, sp))] =
        std::strtod(std::string(line.substr(sp + 1)).c_str(), nullptr);
  }
  return p;
}

double prom_sum(const Prom& p, std::string_view name, std::string_view m1,
                std::string_view m2) {
  double s = 0;
  for (auto it = p.lower_bound(std::string(name)); it != p.end(); ++it) {
    const std::string& key = it->first;
    if (!key.starts_with(name)) break;
    if (key.size() > name.size() && key[name.size()] != '{') continue;
    if (!m1.empty() && key.find(m1) == std::string::npos) continue;
    if (!m2.empty() && key.find(m2) == std::string::npos) continue;
    s += it->second;
  }
  return s;
}

}  // namespace perfbench
