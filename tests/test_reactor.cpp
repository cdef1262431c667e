// The epoll reactor front end (DESIGN.md Sect. 15) against real unix
// sockets, with a stub handler in place of the store-backed
// RequestHandler: partial-line reassembly, pipelining order (tagged
// concurrent, untagged barrier), write-queue backpressure and overflow
// close, idle reaping, admission-control shedding, the oversize-line
// error path, the metrics scraper cap and the shutdown handshake.
// tools/sanitize_check.sh re-runs this binary under ASan and TSan.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/feed.h"
#include "daemon/protocol.h"
#include "daemon/reactor.h"

namespace dfky::daemon {
namespace {

constexpr auto kDeadline = std::chrono::seconds(10);

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(fd, 64), 0);
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const timeval tv{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One LF-terminated line (stripped), or nullopt on EOF/timeout.
std::optional<std::string> recv_line(int fd, std::string& buf) {
  for (;;) {
    const std::size_t pos = buf.find('\n');
    if (pos != std::string::npos) {
      std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// True when nothing arrives on `fd` for `ms` — the negative assertion
/// for ordering tests (the barrier really is holding the response back).
bool quiet_for(int fd, int ms) {
  const timeval tv{.tv_sec = ms / 1000,
                   .tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char c;
  const ssize_t n = ::recv(fd, &c, 1, MSG_PEEK);
  const bool quiet = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  const timeval restore{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &restore, sizeof restore);
  return quiet;
}

/// Echo stub: `ok body=<request body>`, tag echoed, shutdown on the
/// `shutdown` verb — the protocol surface without a store behind it.
Reactor::Result echo_handler(const std::string& line) {
  const TaggedLine t = split_request_tag(line);
  if (t.body == "shutdown") {
    return {tag_response(t.id, ok_response()), true};
  }
  return {tag_response(t.id, "ok body=" + std::string(t.body)), false};
}

/// Reactor over a fresh socket in a temp dir, serving on its own thread.
struct Harness {
  std::string dir;
  std::string sock;
  int lfd = -1;
  int metrics_lfd = -1;
  int metrics_port = 0;
  int wake[2] = {-1, -1};
  std::optional<Reactor> reactor;
  std::thread thr;
  bool stopped = false;

  explicit Harness(ReactorOptions opts, Reactor::Handler handler,
                   std::function<std::size_t()> depth = {},
                   bool with_metrics = false) {
    char tmpl[] = "/tmp/dfky_reactor_test_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;
    sock = dir + "/d.sock";
    lfd = listen_unix(sock);
    EXPECT_EQ(::pipe2(wake, O_CLOEXEC), 0);
    opts.listen_fd = lfd;
    opts.wake_fd = wake[0];
    if (with_metrics) {
      metrics_lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in sin{};
      sin.sin_family = AF_INET;
      sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      EXPECT_EQ(::bind(metrics_lfd, reinterpret_cast<sockaddr*>(&sin),
                       sizeof sin),
                0);
      EXPECT_EQ(::listen(metrics_lfd, 16), 0);
      socklen_t len = sizeof sin;
      ::getsockname(metrics_lfd, reinterpret_cast<sockaddr*>(&sin), &len);
      metrics_port = ntohs(sin.sin_port);
      opts.metrics_fd = metrics_lfd;
    }
    const int wake_wr = wake[1];
    reactor.emplace(opts, std::move(handler), std::move(depth), [wake_wr] {
      const char b = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_wr, &b, 1);
    });
    thr = std::thread([this] { reactor->run(); });
  }

  void stop() {
    if (stopped) return;
    stopped = true;
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake[1], &b, 1);
    thr.join();
  }

  /// Joins without poking the wake pipe — for the shutdown-verb test,
  /// where the handler result is what must stop the loop.
  void join() {
    stopped = true;
    thr.join();
  }

  ~Harness() {
    stop();
    ::close(lfd);
    if (metrics_lfd >= 0) ::close(metrics_lfd);
    ::close(wake[0]);
    ::close(wake[1]);
    ::unlink(sock.c_str());
    ::rmdir(dir.c_str());
  }

  int connect_metrics() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin.sin_port = htons(static_cast<std::uint16_t>(metrics_port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof sin), 0);
    const timeval tv{.tv_sec = 10, .tv_usec = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
  }
};

template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(Reactor, PartialLineReassembly) {
  Harness h(ReactorOptions{}, echo_handler);
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;

  // One line dribbled across four writes, then two lines in one write.
  ASSERT_TRUE(send_all(fd, "he"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(send_all(fd, "ll"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(send_all(fd, "o"));
  ASSERT_TRUE(send_all(fd, "\n"));
  EXPECT_EQ(recv_line(fd, buf), "ok body=hello");

  ASSERT_TRUE(send_all(fd, "@7 foo\r\nbar\n"));
  EXPECT_EQ(recv_line(fd, buf), "@7 ok body=foo");
  EXPECT_EQ(recv_line(fd, buf), "ok body=bar");
  ::close(fd);
}

TEST(Reactor, TaggedRunConcurrentlyUntaggedBarriers) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ReactorOptions opts;
  opts.workers = 4;
  Harness h(opts, [&](const std::string& line) -> Reactor::Result {
    const TaggedLine t = split_request_tag(line);
    if (t.body == "slow") {
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return release; });
    }
    return {tag_response(t.id, "ok body=" + std::string(t.body)), false};
  });
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;

  // @1 parks in a worker; @2 overtakes it (out-of-order completion is
  // the tagged contract); the untagged line must wait for BOTH.
  ASSERT_TRUE(send_all(fd, "@1 slow\n@2 fast\nuntagged\n"));
  EXPECT_EQ(recv_line(fd, buf), "@2 ok body=fast");
  EXPECT_TRUE(quiet_for(fd, 300));  // the barrier is holding
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(recv_line(fd, buf), "@1 ok body=slow");
  EXPECT_EQ(recv_line(fd, buf), "ok body=untagged");
  ::close(fd);
}

TEST(Reactor, SlowReaderGetsEveryResponse) {
  Harness h(ReactorOptions{}, echo_handler);
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  const std::size_t kReqs = 500;
  std::string out;
  for (std::size_t i = 0; i < kReqs; ++i) {
    // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    out += "@" + std::to_string(i) + " ping\n";
#pragma GCC diagnostic pop
  }
  ASSERT_TRUE(send_all(fd, out));
  std::string buf;
  std::vector<bool> seen(kReqs, false);
  for (std::size_t i = 0; i < kReqs; ++i) {
    if (i % 100 == 0) {  // slow reader: EPOLLOUT flush path gets exercised
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto line = recv_line(fd, buf);
    ASSERT_TRUE(line.has_value()) << "connection died after " << i;
    const auto resp = parse_response(*line);
    ASSERT_TRUE(resp && resp->ok && resp->id) << *line;
    ASSERT_LT(*resp->id, kReqs);
    EXPECT_FALSE(seen[*resp->id]) << "duplicate id " << *resp->id;
    seen[*resp->id] = true;
  }
  EXPECT_EQ(h.reactor->stats().overflow_closed, 0u);
  ::close(fd);
}

TEST(Reactor, WriteQueueOverflowClosesUnresponsiveReader) {
  ReactorOptions opts;
  opts.write_queue_limit = std::size_t{64} << 10;
  const std::string big(std::size_t{32} << 10, 'x');
  Harness h(opts, [&](const std::string& line) -> Reactor::Result {
    const TaggedLine t = split_request_tag(line);
    return {tag_response(t.id, "ok big=" + big), false};
  });
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  // 64 x 32KiB of responses against a reader that never reads: the
  // socket buffer fills, then the write queue, then the reactor drops
  // the connection instead of buffering without bound.
  std::string out;
  // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  for (int i = 0; i < 64; ++i) out += "@" + std::to_string(i) + " go\n";
#pragma GCC diagnostic pop
  ASSERT_TRUE(send_all(fd, out));
  EXPECT_TRUE(eventually(
      [&] { return h.reactor->stats().overflow_closed >= 1; }));
  ::close(fd);
}

TEST(Reactor, IdleConnectionsAreReaped) {
  ReactorOptions opts;
  opts.idle_timeout_ms = 100;
  Harness h(opts, echo_handler);
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;
  ASSERT_TRUE(send_all(fd, "ping\n"));
  EXPECT_EQ(recv_line(fd, buf), "ok body=ping");
  // Now go idle; the reaper closes us and recv sees clean EOF.
  EXPECT_EQ(recv_line(fd, buf), std::nullopt);
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().idle_reaped >= 1; }));
  EXPECT_EQ(h.reactor->stats().open_conns, 0u);
  ::close(fd);
}

TEST(Reactor, BusyShedsMutationsNotReads) {
  std::atomic<std::size_t> depth{0};
  ReactorOptions opts;
  opts.busy_queue_limit = 4;
  Harness h(opts, echo_handler, [&] { return depth.load(); });
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;
  ASSERT_TRUE(send_all(fd, "ping\n"));
  EXPECT_EQ(recv_line(fd, buf), "ok body=ping");

  depth.store(10);  // committers saturated
  ASSERT_TRUE(send_all(fd, "@1 add-user u\n"));
  EXPECT_EQ(recv_line(fd, buf), "@1 err busy");
  ASSERT_TRUE(send_all(fd, "revoke 3\n"));
  EXPECT_EQ(recv_line(fd, buf), "err busy");
  // Reads pass through even while mutations shed.
  ASSERT_TRUE(send_all(fd, "@2 status\n"));
  EXPECT_EQ(recv_line(fd, buf), "@2 ok body=status");
  EXPECT_EQ(h.reactor->stats().busy_shed, 2u);

  // New clients are not accepted while saturated...
  const int fd2 = connect_unix(h.sock);  // lands in the backlog
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all(fd2, "ping\n"));
  EXPECT_TRUE(quiet_for(fd2, 300));
  // ...and are picked back up once the backlog drains.
  depth.store(0);
  std::string buf2;
  EXPECT_EQ(recv_line(fd2, buf2), "ok body=ping");
  ASSERT_TRUE(send_all(fd, "@3 add-user u\n"));
  EXPECT_EQ(recv_line(fd, buf), "@3 ok body=add-user u");
  ::close(fd);
  ::close(fd2);
}

TEST(Reactor, OversizeLineGetsErrThenClose) {
  Harness h(ReactorOptions{}, echo_handler);
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  // One valid line, then > kMaxLineBytes without a newline. The valid
  // line is answered; the violation earns one `err` and the close.
  ASSERT_TRUE(send_all(fd, "ping\n"));
  std::string buf;
  EXPECT_EQ(recv_line(fd, buf), "ok body=ping");
  const std::string junk(kMaxLineBytes + (std::size_t{64} << 10), 'a');
  send_all(fd, junk);  // may fail part-way once the reactor shuts its read
  EXPECT_EQ(recv_line(fd, buf), "err request line too long");
  EXPECT_EQ(recv_line(fd, buf), std::nullopt);  // EOF
  ::close(fd);
}

TEST(Reactor, MetricsScraperCapAndDeadline) {
  ReactorOptions opts;
  opts.max_metrics_conns = 1;
  opts.metrics_timeout_ms = 300;
  Harness h(opts, echo_handler, {}, /*with_metrics=*/true);

  const int held = h.connect_metrics();  // occupies the only slot, silent
  ASSERT_TRUE(eventually([&] {
    // Over the cap: accepted then immediately closed.
    const int fd = h.connect_metrics();
    std::string buf;
    const bool rejected = recv_line(fd, buf) == std::nullopt;
    ::close(fd);
    return rejected && h.reactor->stats().metrics_rejects >= 1;
  }));

  // The silent scraper is reaped at its deadline, freeing the slot for a
  // real scrape.
  std::string held_buf;
  EXPECT_EQ(recv_line(held, held_buf), std::nullopt);
  ::close(held);
  EXPECT_TRUE(eventually([&] {
    const int fd = h.connect_metrics();
    send_all(fd, "GET /metrics HTTP/1.0\r\n\r\n");
    std::string buf;
    const auto status = recv_line(fd, buf);
    ::close(fd);
    return status.has_value() && status->starts_with("HTTP/1.0 200");
  }));
}

TEST(Reactor, ShutdownVerbAcksThenStops) {
  Harness h(ReactorOptions{}, echo_handler);
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;
  ASSERT_TRUE(send_all(fd, "shutdown\n"));
  EXPECT_EQ(recv_line(fd, buf), "ok");
  EXPECT_EQ(recv_line(fd, buf), std::nullopt);  // drained and closed
  h.join();  // run() returned because the handler said shutdown
  ::close(fd);
}

// ---- streaming fan-out (DESIGN.md Sect. 16) ----

TEST(Reactor, FeedSubscribePushesFramesToEverySubscriberOnly) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  Harness h(opts, echo_handler);

  const int sub1 = connect_unix(h.sock);
  const int sub2 = connect_unix(h.sock);
  const int plain = connect_unix(h.sock);
  ASSERT_GE(sub1, 0);
  ASSERT_GE(sub2, 0);
  ASSERT_GE(plain, 0);
  std::string b1, b2, bp;
  ASSERT_TRUE(send_all(sub1, "subscribe\n"));
  EXPECT_EQ(recv_line(sub1, b1), "ok period=0 replayed=0");
  ASSERT_TRUE(send_all(sub2, "@9 subscribe\n"));
  EXPECT_EQ(recv_line(sub2, b2), "@9 ok period=0 replayed=0");
  ASSERT_TRUE(send_all(plain, "ping\n"));
  EXPECT_EQ(recv_line(plain, bp), "ok body=ping");
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 2; }));

  hub.publish("bcast new-period period=1 bundles=aa", 1);
  hub.publish("bcast new-period period=2 bundles=bb", 2);
  EXPECT_EQ(recv_line(sub1, b1), "bcast new-period period=1 bundles=aa");
  EXPECT_EQ(recv_line(sub1, b1), "bcast new-period period=2 bundles=bb");
  EXPECT_EQ(recv_line(sub2, b2), "bcast new-period period=1 bundles=aa");
  EXPECT_EQ(recv_line(sub2, b2), "bcast new-period period=2 bundles=bb");
  // Non-subscribers never see the push stream.
  EXPECT_TRUE(quiet_for(plain, 200));

  // A subscriber's connection still answers ordinary requests.
  ASSERT_TRUE(send_all(sub1, "@3 status\n"));
  EXPECT_EQ(recv_line(sub1, b1), "@3 ok body=status");

  ::close(sub1);
  ::close(sub2);
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 0; }));
  ::close(plain);
}

TEST(Reactor, FeedSlowSubscriberShedLosesNobodyElsesFrames) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  opts.write_queue_limit = std::size_t{64} << 10;
  Harness h(opts, echo_handler);

  const int good = connect_unix(h.sock);
  const int slow = connect_unix(h.sock);
  ASSERT_GE(good, 0);
  ASSERT_GE(slow, 0);
  std::string bg, bs;
  ASSERT_TRUE(send_all(good, "subscribe\n"));
  EXPECT_EQ(recv_line(good, bg), "ok period=0 replayed=0");
  ASSERT_TRUE(send_all(slow, "subscribe\n"));
  EXPECT_EQ(recv_line(slow, bs), "ok period=0 replayed=0");
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 2; }));

  // 64 x 32KiB frames against a subscriber that never reads: its socket
  // buffer fills, then its write queue, then it is shed — while the
  // reading subscriber receives every frame, in order.
  const std::string pad(std::size_t{32} << 10, 'x');
  const int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    hub.publish("bcast n=" + std::to_string(i) + " pad=" + pad,
                static_cast<std::uint64_t>(i));
    const auto line = recv_line(good, bg);
    ASSERT_TRUE(line.has_value()) << "good subscriber died at frame " << i;
    EXPECT_TRUE(line->starts_with("bcast n=" + std::to_string(i) + " "))
        << "frame " << i << " got: " << line->substr(0, 40);
  }
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().feed_shed >= 1; }));
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 1; }));
  ::close(good);
  ::close(slow);
}

TEST(Reactor, FeedResumeReplaysExactlyTheMissedEpochs) {
  FeedHub hub;
  hub.set_replay([](std::optional<std::uint64_t> from) {
    FeedReplay rep;
    rep.current = 5;
    rep.oldest = 2;
    if (!from) {
      rep.ok = true;
      return rep;
    }
    if (*from + 1 < rep.oldest) return rep;  // evicted
    rep.ok = true;
    for (std::uint64_t p = *from + 1; p <= rep.current; ++p) {
      rep.lines.push_back("bcast new-period period=" + std::to_string(p) +
                          " bundles=ff");
    }
    return rep;
  });
  ReactorOptions opts;
  opts.feed = &hub;
  Harness h(opts, echo_handler);

  // Resume from period 2: epochs 3, 4, 5 — exactly the missed ones.
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;
  ASSERT_TRUE(send_all(fd, "subscribe 2\n"));
  EXPECT_EQ(recv_line(fd, buf), "ok period=5 replayed=3");
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=3 bundles=ff");
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=4 bundles=ff");
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=5 bundles=ff");
  EXPECT_TRUE(quiet_for(fd, 200));  // and nothing more
  EXPECT_EQ(h.reactor->stats().feed_replayed, 3u);

  // Already current: subscribed, nothing replayed.
  ASSERT_TRUE(send_all(fd, "@1 subscribe 5\n"));
  EXPECT_EQ(recv_line(fd, buf), "@1 ok period=5 replayed=0");

  // Evicted from the archive: NOT subscribed, told where the feed can
  // bridge from so the client falls back to the signed catch-up path.
  const int old = connect_unix(h.sock);
  ASSERT_GE(old, 0);
  std::string bo;
  ASSERT_TRUE(send_all(old, "subscribe 0\n"));
  EXPECT_EQ(recv_line(old, bo), "err replay-unavailable oldest=2 period=5");
  hub.publish("bcast new-period period=6 bundles=ee", 6);
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=6 bundles=ee");
  EXPECT_TRUE(quiet_for(old, 200));  // the rejected conn is not a stream

  // Malformed resume point.
  ASSERT_TRUE(send_all(old, "subscribe zero\n"));
  EXPECT_EQ(recv_line(old, bo), "err usage: subscribe [from-period]");
  ::close(fd);
  ::close(old);
}

TEST(Reactor, FeedDrainFlushesInFlightBroadcastFrames) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  Harness h(opts, echo_handler);
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  std::string buf;
  ASSERT_TRUE(send_all(fd, "subscribe\n"));
  EXPECT_EQ(recv_line(fd, buf), "ok period=0 replayed=0");

  // Frames published right before shutdown must still reach the stream:
  // the drain fans out pending frames and flushes them before closing.
  hub.publish("bcast new-period period=1 bundles=aa", 1);
  hub.publish("bcast new-period period=2 bundles=bb", 2);
  hub.publish("bcast new-period period=3 bundles=cc", 3);
  h.stop();
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=1 bundles=aa");
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=2 bundles=bb");
  EXPECT_EQ(recv_line(fd, buf), "bcast new-period period=3 bundles=cc");
  EXPECT_EQ(recv_line(fd, buf), std::nullopt);  // then clean EOF
  ::close(fd);
}

TEST(Reactor, FeedSubscriberOutlivesIdleReaping) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  opts.idle_timeout_ms = 100;
  Harness h(opts, echo_handler);
  const int sub = connect_unix(h.sock);
  const int plain = connect_unix(h.sock);
  ASSERT_GE(sub, 0);
  ASSERT_GE(plain, 0);
  std::string bs, bp;
  ASSERT_TRUE(send_all(sub, "subscribe\n"));
  EXPECT_EQ(recv_line(sub, bs), "ok period=0 replayed=0");
  ASSERT_TRUE(send_all(plain, "ping\n"));
  EXPECT_EQ(recv_line(plain, bp), "ok body=ping");

  // The plain connection idles out; the subscriber is quiet for the same
  // stretch but push streams are never idle-reaped.
  EXPECT_EQ(recv_line(plain, bp), std::nullopt);
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().idle_reaped >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(h.reactor->stats().subscribers, 1u);
  hub.publish("bcast new-period period=9 bundles=dd", 9);
  EXPECT_EQ(recv_line(sub, bs), "bcast new-period period=9 bundles=dd");
  ::close(sub);
  ::close(plain);
}

TEST(Reactor, DrainAnswersInFlightRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  Harness h(ReactorOptions{}, [&](const std::string& line) -> Reactor::Result {
    const TaggedLine t = split_request_tag(line);
    if (t.body == "slow") {
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return release; });
    }
    return {tag_response(t.id, "ok body=" + std::string(t.body)), false};
  });
  const int fd = connect_unix(h.sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "@1 slow\n"));
  std::string buf;
  EXPECT_TRUE(quiet_for(fd, 100));  // parked in the worker
  std::thread stopper([&] { h.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  // The drain must flush the ack for the request that was already
  // executing before it closes the connection.
  EXPECT_EQ(recv_line(fd, buf), "@1 ok body=slow");
  EXPECT_EQ(recv_line(fd, buf), std::nullopt);
  stopper.join();
  ::close(fd);
}

}  // namespace
}  // namespace dfky::daemon
