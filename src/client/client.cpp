#include "client/client.h"

#include "core/content.h"

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

constexpr std::string_view kNewPeriodFrame = "bcast new-period ";
constexpr std::string_view kEncryptFrame = "bcast encrypt ";

/// The non-empty items of a comma-separated list.
std::vector<std::string_view> split_list(std::string_view list) {
  std::vector<std::string_view> out;
  while (!list.empty()) {
    const std::size_t comma = std::min(list.find(','), list.size());
    if (comma > 0) out.push_back(list.substr(0, comma));
    list.remove_prefix(std::min(comma + 1, list.size()));
  }
  return out;
}

/// The value of a push line's ` key=` field; nullopt when absent.
std::optional<std::string_view> frame_field(std::string_view line,
                                            std::string_view key) {
  for (std::size_t at = line.find(' '); at != std::string_view::npos;
       at = line.find(' ', at + 1)) {
    const std::string_view rest = line.substr(at + 1);
    if (rest.size() > key.size() && rest.starts_with(key) &&
        rest[key.size()] == '=') {
      const std::string_view value = rest.substr(key.size() + 1);
      return value.substr(0, value.find(' '));
    }
  }
  return std::nullopt;
}

/// One hex field decoded as a whole `T`; nullopt on bad hex, a failed
/// parse or trailing bytes.
template <class T>
std::optional<T> decode_hex(std::string_view hex, const Group& group) {
  const std::optional<Bytes> raw = daemon::hex_decode(hex);
  if (!raw) return std::nullopt;
  try {
    Reader r(*raw);
    T out = T::deserialize(r, group);
    r.expect_end();
    return out;
  } catch (const Error&) {
    return std::nullopt;
  }
}

FrameOutcome reset_outcome(ResetOutcome outcome) {
  switch (outcome) {
    case ResetOutcome::kApplied: return FrameOutcome::kApplied;
    case ResetOutcome::kStaleIgnored: return FrameOutcome::kStale;
    case ResetOutcome::kGapDetected: return FrameOutcome::kGap;
    case ResetOutcome::kCannotFollow: return FrameOutcome::kCannotFollow;
  }
  return FrameOutcome::kMalformed;
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

FrameResult apply_frame(Receiver& receiver, std::size_t shard,
                        std::string_view line) {
  const Group& group = receiver.params().group;
  FrameResult out;  // kMalformed until the line proves otherwise
  if (line.starts_with(kEncryptFrame)) {
    const std::optional<std::string_view> k = frame_field(line, "shard");
    const std::optional<std::string_view> ct = frame_field(line, "ct");
    const std::optional<std::uint64_t> sealed_for =
        k ? daemon::parse_u64(*k) : std::nullopt;
    if (!sealed_for || !ct) return out;
    if (*sealed_for != shard) {
      out.outcome = FrameOutcome::kOtherShard;
      return out;
    }
    const std::optional<ContentMessage> msg =
        decode_hex<ContentMessage>(*ct, group);
    if (!msg) return out;
    try {
      out.payload = open_content(receiver.params(), receiver.key(), *msg);
      out.outcome = FrameOutcome::kOpened;
    } catch (const Error&) {
      out.outcome = FrameOutcome::kNotOpened;  // revoked or stale key
    }
    receiver.note_content_frame(msg->kem.period,
                                out.outcome == FrameOutcome::kOpened);
    return out;
  }
  if (!line.starts_with(kNewPeriodFrame)) return out;
  const std::optional<std::string_view> list = frame_field(line, "bundles");
  if (!list) return out;
  std::vector<SignedResetBundle> bundles;
  for (const std::string_view hex : split_list(*list)) {
    std::optional<SignedResetBundle> b =
        decode_hex<SignedResetBundle>(hex, group);
    if (!b) return out;
    bundles.push_back(std::move(*b));
  }
  out.outcome = FrameOutcome::kUnauthenticated;
  for (const SignedResetBundle& b : bundles) {
    if (!b.verify(group, receiver.manager_vk())) continue;
    out.outcome = reset_outcome(receiver.apply_reset(b));
  }
  return out;
}

CatchUpReport apply_replay(Receiver& receiver,
                           const daemon::FeedReplay& rep) {
  CatchUpReport out;
  out.period = rep.current;
  out.replayed = rep.lines.size();
  out.verdicts = rep.verdicts.size();
  for (const std::string& line : rep.lines) {
    if (!line.starts_with(kNewPeriodFrame)) {
      throw DecodeError("catch-up: not a new-period frame");
    }
    // The shard only routes content frames; a replay holds none.
    switch (apply_frame(receiver, 0, line).outcome) {
      case FrameOutcome::kApplied: ++out.applied; break;
      case FrameOutcome::kCannotFollow: ++out.cannot_follow; break;
      case FrameOutcome::kMalformed:
        throw DecodeError("catch-up: malformed new-period frame");
      default: break;
    }
  }
  for (const std::string& hex : rep.verdicts) {
    const std::optional<EvictionVerdict> v =
        decode_hex<EvictionVerdict>(hex, receiver.params().group);
    if (!v) throw DecodeError("catch-up: malformed eviction verdict");
    receiver.apply_eviction(*v);
  }
  return out;
}

namespace {

/// subscribe() from `from`, then the replayed epochs.
daemon::FeedReplay subscribe_from(Conn& c, std::uint64_t from,
                                  int timeout_ms) {
  const daemon::Response r = subscribe(c, from, timeout_ms);
  if (!r.ok) throw ConnError("subscribe refused: " + r.error);
  const auto field = [&r](const std::string& name) {
    const auto it = r.fields.find(name);
    const std::optional<std::uint64_t> v =
        it == r.fields.end() ? std::nullopt : daemon::parse_u64(it->second);
    if (!v) throw ConnError("subscribe answer without " + name);
    return *v;
  };
  daemon::FeedReplay rep;
  rep.current = field("period");
  const std::uint64_t replayed = field("replayed");
  if (const auto it = r.fields.find("evicted"); it != r.fields.end()) {
    for (const std::string_view v : split_list(it->second)) {
      rep.verdicts.emplace_back(v);
    }
  }
  while (rep.lines.size() < replayed) {
    std::optional<std::string> line = c.recv(timeout_ms);
    if (!line) throw ConnError("timed out in the replayed epochs");
    if (!line->starts_with(kNewPeriodFrame)) {
      throw ConnError("not a replayed epoch: " + line->substr(0, 64));
    }
    rep.lines.push_back(std::move(*line));
  }
  return rep;
}

}  // namespace

CatchUpReport catch_up(Conn& c, Receiver& receiver, int timeout_ms) {
  return apply_replay(receiver,
                      subscribe_from(c, receiver.period(), timeout_ms));
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
