// The epoll reactor front end (DESIGN.md Sect. 15) against real unix
// sockets, with a stub handler in place of the store-backed
// RequestHandler: partial-line reassembly, pipelining order (tagged
// concurrent, untagged barrier), write-queue backpressure and overflow
// close, idle reaping, admission-control shedding, the oversize-line
// error path, the metrics scraper cap and the shutdown handshake.
// tools/sanitize_check.sh re-runs this binary under ASan and TSan.
#include <gtest/gtest.h>

#include <atomic>
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

#include "client/client.h"
#include "daemon/feed.h"
#include "daemon/protocol.h"
#include "daemon/reactor.h"

namespace dfky::daemon {
namespace {

constexpr auto kDeadline = std::chrono::seconds(10);
constexpr int kMs = 10000;  // a reply slower than this fails the test

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

/// Raw bytes with no framing: partial lines and oversize junk are exactly
/// what client::Conn cannot send.
bool send_raw(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// True when the metrics port closes `fd` with no answer. Raw TCP: the
/// scraper cap and deadline act on connections http_get never holds open.
bool closed_by_peer(int fd) {
  char c;
  ssize_t n;
  do {
    n = ::recv(fd, &c, 1, 0);
  } while (n < 0 && errno == EINTR);
  return n <= 0;
}

/// `@0 <verb>` .. `@<count-1> <verb>`, one line each, for one write.
std::string tagged_lines(std::size_t count, std::string_view verb) {
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += '\n';
    out += '@';
    out += std::to_string(i);
    out += ' ';
    out += verb;
  }
  return out;
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

  /// A handler that answers on the worker, before it returns.
  using InlineHandler = std::function<Reactor::Result(const std::string&)>;

  explicit Harness(ReactorOptions opts, InlineHandler handler,
                   std::function<std::size_t()> depth = {},
                   bool with_metrics = false)
      : Harness(opts,
                Reactor::Handler(
                    [handler = std::move(handler)](const std::string& line,
                                                   Reactor::Reply reply) {
                      reply(handler(line));
                    }),
                std::move(depth), with_metrics) {}

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

  /// Raw TCP to the metrics port: the scraper-cap test holds connections
  /// open silently, which client::http_get never does.
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
  client::Conn c(h.sock);

  // One line dribbled across four writes, then two lines in one write.
  ASSERT_TRUE(send_raw(c.fd(), "he"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(send_raw(c.fd(), "ll"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(send_raw(c.fd(), "o"));
  ASSERT_TRUE(send_raw(c.fd(), "\n"));
  EXPECT_EQ(c.recv(kMs), "ok body=hello");

  ASSERT_TRUE(send_raw(c.fd(), "@7 foo\r\nbar\n"));
  EXPECT_EQ(c.recv(kMs), "@7 ok body=foo");
  EXPECT_EQ(c.recv(kMs), "ok body=bar");
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
  client::Conn c(h.sock);

  // @1 parks in a worker; @2 overtakes it (out-of-order completion is
  // the tagged contract); the untagged line must wait for BOTH.
  c.send("@1 slow\n@2 fast\nuntagged");
  EXPECT_EQ(c.recv(kMs), "@2 ok body=fast");
  EXPECT_EQ(c.recv(300), std::nullopt);  // the barrier is holding
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(c.recv(kMs), "@1 ok body=slow");
  EXPECT_EQ(c.recv(kMs), "ok body=untagged");
}

TEST(Reactor, SlowReaderGetsEveryResponse) {
  Harness h(ReactorOptions{}, echo_handler);
  client::Conn c(h.sock);
  const std::size_t kReqs = 500;
  c.send(tagged_lines(kReqs, "ping"));
  std::vector<bool> seen(kReqs, false);
  for (std::size_t i = 0; i < kReqs; ++i) {
    if (i % 100 == 0) {  // slow reader: EPOLLOUT flush path gets exercised
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto line = c.recv(kMs);
    ASSERT_TRUE(line.has_value()) << "no answer after " << i;
    const auto resp = parse_response(*line);
    ASSERT_TRUE(resp && resp->ok && resp->id) << *line;
    ASSERT_LT(*resp->id, kReqs);
    EXPECT_FALSE(seen[*resp->id]) << "duplicate id " << *resp->id;
    seen[*resp->id] = true;
  }
  EXPECT_EQ(h.reactor->stats().overflow_closed, 0u);
}

TEST(Reactor, WriteQueueOverflowClosesUnresponsiveReader) {
  ReactorOptions opts;
  opts.write_queue_limit = std::size_t{64} << 10;
  const std::string big(std::size_t{32} << 10, 'x');
  Harness h(opts, [&](const std::string& line) -> Reactor::Result {
    const TaggedLine t = split_request_tag(line);
    return {tag_response(t.id, "ok big=" + big), false};
  });
  client::Conn c(h.sock);
  // 64 x 32KiB of responses against a reader that never reads: the
  // socket buffer fills, then the write queue, then the reactor drops
  // the connection instead of buffering without bound.
  c.send(tagged_lines(64, "go"));
  EXPECT_TRUE(eventually(
      [&] { return h.reactor->stats().overflow_closed >= 1; }));
}

TEST(Reactor, IdleConnectionsAreReaped) {
  ReactorOptions opts;
  opts.idle_timeout_ms = 100;
  Harness h(opts, echo_handler);
  client::Conn c(h.sock);
  EXPECT_EQ(c.request("ping", kMs), "ok body=ping");
  // Now go idle; the reaper closes us and recv sees clean EOF.
  EXPECT_THROW(c.recv(kMs), client::ConnError);
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().idle_reaped >= 1; }));
  EXPECT_EQ(h.reactor->stats().open_conns, 0u);
}

TEST(Reactor, BusyShedsMutationsNotReads) {
  std::atomic<std::size_t> depth{0};
  ReactorOptions opts;
  opts.busy_queue_limit = 4;
  Harness h(opts, echo_handler, [&] { return depth.load(); });
  client::Conn c(h.sock);
  EXPECT_EQ(c.request("ping", kMs), "ok body=ping");

  depth.store(10);  // committers saturated
  EXPECT_EQ(c.request("@1 add-user u", kMs), "@1 err busy");
  EXPECT_EQ(c.request("revoke 3", kMs), "err busy");
  // Reads pass through even while mutations shed.
  EXPECT_EQ(c.request("@2 status", kMs), "@2 ok body=status");
  EXPECT_EQ(h.reactor->stats().busy_shed, 2u);

  // New clients are not accepted while saturated...
  client::Conn c2(h.sock);  // lands in the backlog
  c2.send("ping");
  EXPECT_EQ(c2.recv(300), std::nullopt);
  // ...and are picked back up once the backlog drains.
  depth.store(0);
  EXPECT_EQ(c2.recv(kMs), "ok body=ping");
  EXPECT_EQ(c.request("@3 add-user u", kMs), "@3 ok body=add-user u");
}

TEST(Reactor, OversizeLineGetsErrThenClose) {
  Harness h(ReactorOptions{}, echo_handler);
  client::Conn c(h.sock);
  // One valid line, then > kMaxLineBytes without a newline. The valid
  // line is answered; the violation earns one `err` and the close.
  EXPECT_EQ(c.request("ping", kMs), "ok body=ping");
  const std::string junk(kMaxLineBytes + (std::size_t{64} << 10), 'a');
  send_raw(c.fd(), junk);  // may fail part-way once the reactor shuts its read
  EXPECT_EQ(c.recv(kMs), "err request line too long");
  EXPECT_THROW(c.recv(kMs), client::ConnError);  // EOF
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
    const bool rejected = closed_by_peer(fd);
    ::close(fd);
    return rejected && h.reactor->stats().metrics_rejects >= 1;
  }));

  // The silent scraper is reaped at its deadline, freeing the slot for a
  // real scrape.
  EXPECT_TRUE(closed_by_peer(held));
  ::close(held);
  EXPECT_TRUE(eventually([&] {
    try {
      client::http_get("127.0.0.1", h.metrics_port, "/metrics");
      return true;
    } catch (const client::ConnError&) {
      return false;
    }
  }));
}

TEST(Reactor, ShutdownVerbAcksThenStops) {
  Harness h(ReactorOptions{}, echo_handler);
  client::Conn c(h.sock);
  EXPECT_EQ(c.request("shutdown", kMs), "ok");
  EXPECT_THROW(c.recv(kMs), client::ConnError);  // drained and closed
  h.join();  // run() returned because the handler said shutdown
}

// ---- streaming fan-out (DESIGN.md Sect. 16) ----

TEST(Reactor, FeedSubscribePushesFramesToEverySubscriberOnly) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  Harness h(opts, echo_handler);

  client::Conn sub1(h.sock);
  client::Conn sub2(h.sock);
  client::Conn plain(h.sock);
  EXPECT_EQ(sub1.request("subscribe", kMs), "ok period=0 replayed=0");
  EXPECT_EQ(sub2.request("@9 subscribe", kMs), "@9 ok period=0 replayed=0");
  EXPECT_EQ(plain.request("ping", kMs), "ok body=ping");
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 2; }));

  hub.publish("bcast new-period period=1 bundles=aa", 1);
  hub.publish("bcast new-period period=2 bundles=bb", 2);
  EXPECT_EQ(sub1.recv(kMs), "bcast new-period period=1 bundles=aa");
  EXPECT_EQ(sub1.recv(kMs), "bcast new-period period=2 bundles=bb");
  EXPECT_EQ(sub2.recv(kMs), "bcast new-period period=1 bundles=aa");
  EXPECT_EQ(sub2.recv(kMs), "bcast new-period period=2 bundles=bb");
  // Non-subscribers never see the push stream.
  EXPECT_EQ(plain.recv(200), std::nullopt);

  // A subscriber's connection still answers ordinary requests.
  EXPECT_EQ(sub1.request("@3 status", kMs), "@3 ok body=status");

  sub1.shutdown();
  sub2.shutdown();
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 0; }));
}

TEST(Reactor, FeedSlowSubscriberShedLosesNobodyElsesFrames) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  opts.write_queue_limit = std::size_t{64} << 10;
  Harness h(opts, echo_handler);

  client::Conn good(h.sock);
  client::Conn slow(h.sock);
  EXPECT_EQ(good.request("subscribe", kMs), "ok period=0 replayed=0");
  EXPECT_EQ(slow.request("subscribe", kMs), "ok period=0 replayed=0");
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 2; }));

  // 64 x 32KiB frames against a subscriber that never reads: its socket
  // buffer fills, then its write queue, then it is shed — while the
  // reading subscriber receives every frame, in order.
  const std::string pad(std::size_t{32} << 10, 'x');
  const int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    hub.publish("bcast n=" + std::to_string(i) + " pad=" + pad,
                static_cast<std::uint64_t>(i));
    const auto line = good.recv(kMs);
    ASSERT_TRUE(line.has_value()) << "good subscriber starved at frame " << i;
    EXPECT_TRUE(line->starts_with("bcast n=" + std::to_string(i) + " "))
        << "frame " << i << " got: " << line->substr(0, 40);
  }
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().feed_shed >= 1; }));
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().subscribers == 1; }));
}

TEST(Reactor, FeedResumeReplaysExactlyTheMissedEpochs) {
  FeedHub hub;
  hub.set_replay([](std::optional<std::uint64_t> from) {
    FeedReplay rep;
    rep.current = 5;
    if (!from) return rep;
    if (*from + 1 < 2) {  // one shard's archive starts at 2: its verdict
      rep.verdicts = {"ab", "cd"};
      return rep;
    }
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
  client::Conn c(h.sock);
  EXPECT_EQ(c.request("subscribe 2", kMs), "ok period=5 replayed=3");
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=3 bundles=ff");
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=4 bundles=ff");
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=5 bundles=ff");
  EXPECT_EQ(c.recv(200), std::nullopt);  // and nothing more
  EXPECT_EQ(h.reactor->stats().feed_replayed, 3u);

  // Already current: subscribed, nothing replayed.
  EXPECT_EQ(c.request("@1 subscribe 5", kMs), "@1 ok period=5 replayed=0");

  // Evicted from an archive: subscribed all the same, the verdicts ride
  // the answer line, and the stream goes live.
  client::Conn old(h.sock);
  EXPECT_EQ(old.request("subscribe 0", kMs),
            "ok period=5 replayed=0 evicted=ab,cd");
  hub.publish("bcast new-period period=6 bundles=ee", 6);
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=6 bundles=ee");
  EXPECT_EQ(old.recv(kMs), "bcast new-period period=6 bundles=ee");

  // Malformed resume point.
  client::Conn bad(h.sock);
  EXPECT_EQ(bad.request("subscribe zero", kMs),
            "err usage: subscribe [from-period]");
}

TEST(Reactor, FeedDrainFlushesInFlightBroadcastFrames) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  Harness h(opts, echo_handler);
  client::Conn c(h.sock);
  EXPECT_EQ(c.request("subscribe", kMs), "ok period=0 replayed=0");

  // Frames published right before shutdown must still reach the stream:
  // the drain fans out pending frames and flushes them before closing.
  hub.publish("bcast new-period period=1 bundles=aa", 1);
  hub.publish("bcast new-period period=2 bundles=bb", 2);
  hub.publish("bcast new-period period=3 bundles=cc", 3);
  h.stop();
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=1 bundles=aa");
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=2 bundles=bb");
  EXPECT_EQ(c.recv(kMs), "bcast new-period period=3 bundles=cc");
  EXPECT_THROW(c.recv(kMs), client::ConnError);  // then clean EOF
}

TEST(Reactor, FeedSubscriberOutlivesIdleReaping) {
  FeedHub hub;
  ReactorOptions opts;
  opts.feed = &hub;
  opts.idle_timeout_ms = 100;
  Harness h(opts, echo_handler);
  client::Conn sub(h.sock);
  client::Conn plain(h.sock);
  EXPECT_EQ(sub.request("subscribe", kMs), "ok period=0 replayed=0");
  EXPECT_EQ(plain.request("ping", kMs), "ok body=ping");

  // The plain connection idles out; the subscriber is quiet for the same
  // stretch but push streams are never idle-reaped.
  EXPECT_THROW(plain.recv(kMs), client::ConnError);
  EXPECT_TRUE(eventually([&] { return h.reactor->stats().idle_reaped >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(h.reactor->stats().subscribers, 1u);
  hub.publish("bcast new-period period=9 bundles=dd", 9);
  EXPECT_EQ(sub.recv(kMs), "bcast new-period period=9 bundles=dd");
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
  client::Conn c(h.sock);
  c.send("@1 slow");
  EXPECT_EQ(c.recv(100), std::nullopt);  // parked in the worker
  std::thread stopper([&] { h.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  // The drain must flush the ack for the request that was already
  // executing before it closes the connection.
  EXPECT_EQ(c.recv(kMs), "@1 ok body=slow");
  EXPECT_THROW(c.recv(kMs), client::ConnError);
  stopper.join();
}

TEST(Reactor, RepliesFromAnotherThreadFreeTheWorker) {
  // A handler may return before it answers (a mutation waits for its
  // fsync on the committer, not on the worker): one worker takes all
  // three requests, and replies given later from another thread reach the
  // client in the order they are given.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::string, Reactor::Reply>> parked;  // guarded by mu
  ReactorOptions opts;
  opts.workers = 1;
  Harness h(opts, Reactor::Handler([&](const std::string& line,
                                       Reactor::Reply reply) {
    std::lock_guard lk(mu);
    parked.emplace_back(line, std::move(reply));
    cv.notify_all();
  }));
  client::Conn c(h.sock);
  c.send("@1 a\n@2 b\n@3 c");
  std::vector<std::pair<std::string, Reactor::Reply>> took;
  {
    std::unique_lock lk(mu);
    ASSERT_TRUE(
        cv.wait_for(lk, kDeadline, [&] { return parked.size() == 3; }));
    took.swap(parked);
  }
  std::thread answerer([&] {
    for (auto it = took.rbegin(); it != took.rend(); ++it) {
      const TaggedLine t = split_request_tag(it->first);
      it->second(
          {tag_response(t.id, "ok body=" + std::string(t.body)), false});
    }
  });
  answerer.join();
  EXPECT_EQ(c.recv(kMs), "@3 ok body=c");
  EXPECT_EQ(c.recv(kMs), "@2 ok body=b");
  EXPECT_EQ(c.recv(kMs), "@1 ok body=a");
}

TEST(Reactor, DrainWaitsForTheReplyOfAClosedConnection) {
  // The reply of a request whose client hung up still comes (from the
  // committer, in the daemon). The drain must wait for it — the Reply
  // writes the completion pipe, which run() closes on its way out.
  std::mutex mu;
  std::condition_variable cv;
  Reactor::Reply parked;  // guarded by mu
  Harness h(ReactorOptions{}, Reactor::Handler([&](const std::string&,
                                                   Reactor::Reply reply) {
    std::lock_guard lk(mu);
    parked = std::move(reply);
    cv.notify_all();
  }));
  {
    client::Conn c(h.sock);
    c.send("@1 slow");
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, kDeadline, [&] { return bool(parked); }));
  }  // the client is gone, its request is not
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    h.stop();
    stopped = true;
  });
  EXPECT_FALSE(stopped.load());
  Reactor::Reply reply;
  {
    std::lock_guard lk(mu);
    reply = std::move(parked);
  }
  reply({"@1 ok", false});
  stopper.join();
  EXPECT_TRUE(stopped.load());
}

}  // namespace
}  // namespace dfky::daemon
