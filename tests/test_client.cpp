// The dfkyd client library (src/client): connect retry, line framing with
// its timeout, EOF and size cap, tagged pipelining with out-of-order
// answers, and the Prometheus parser against the obs exporter's own text.
// The daemon side is a scripted fake on a real unix socket, so each test
// controls exactly what arrives and when.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "daemon/protocol.h"
#include "obs/metrics.h"

namespace dfky::client {
namespace {

constexpr int kMs = 10000;  // an answer slower than this fails the test

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dfky_client_test_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    path = tmpl;
  }
  ~TempDir() { ::rmdir(path.c_str()); }
};

void send_raw(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// The daemon end of one connection: lines in through a LineFramer.
struct Peer {
  int fd = -1;
  daemon::LineFramer framer;

  /// The next request line; nullopt at EOF or after `timeout_ms`.
  std::optional<std::string> line(int timeout_ms = kMs) {
    const timeval tv{.tv_sec = timeout_ms / 1000,
                     .tv_usec = (timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    for (;;) {
      if (auto l = framer.next()) return l;
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      framer.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
  }
  void reply(std::string_view line) { send_raw(fd, std::string(line) + "\n"); }
};

/// A scripted stand-in for dfkyd: listens at `sock`, accepts one
/// connection and runs `script` on it on its own thread.
class FakeDaemon {
 public:
  FakeDaemon(const std::string& sock, std::function<void(Peer&)> script)
      : sock_(sock) {
    lfd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(lfd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    EXPECT_EQ(::listen(lfd_, 4), 0);
    thr_ = std::thread([this, script = std::move(script)] {
      Peer peer;
      peer.fd = ::accept(lfd_, nullptr, nullptr);
      if (peer.fd < 0) return;
      script(peer);
      ::close(peer.fd);
    });
  }
  ~FakeDaemon() {
    thr_.join();
    ::close(lfd_);
    ::unlink(sock_.c_str());
  }
  FakeDaemon(const FakeDaemon&) = delete;
  FakeDaemon& operator=(const FakeDaemon&) = delete;

 private:
  std::string sock_;
  int lfd_ = -1;
  std::thread thr_;
};

TEST(ClientConn, RetriesIntoASocketThatAppearsLate) {
  TempDir d;
  const std::string sock = d.path + "/late.sock";
  // One attempt gives up at once, and says where it tried.
  try {
    Conn c(sock);
    ADD_FAILURE() << "connected to a socket that does not exist";
  } catch (const ConnError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot connect to " + sock),
              std::string::npos)
        << e.what();
  }

  std::optional<FakeDaemon> fake;
  std::thread later([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fake.emplace(sock, [](Peer& p) {
      if (p.line() == "ping") p.reply("ok pid=1");
    });
  });
  std::optional<Conn> c;
  try {
    c.emplace(sock, RetryPolicy{.base_ms = 10, .max_attempts = 40});
  } catch (const ConnError& e) {
    ADD_FAILURE() << e.what();
  }
  later.join();
  if (c) {
    EXPECT_EQ(c->request("ping", kMs), "ok pid=1");
  }
}

TEST(ClientConn, TimeoutThenEof) {
  TempDir d;
  const std::string sock = d.path + "/d.sock";
  FakeDaemon fake(sock, [](Peer& p) {
    ASSERT_EQ(p.line(), "status");
    // Silent until the client gives up waiting, then split one answer
    // over two writes, then hang up.
    ASSERT_EQ(p.line(), "ping");
    send_raw(p.fd, "ok per");
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    send_raw(p.fd, "iod=3\r\n");
  });
  Conn c(sock);
  c.send("status");
  EXPECT_EQ(c.recv(50), std::nullopt);
  EXPECT_THROW(c.request("ping", 1), ConnError);  // no answer within 1 ms
  EXPECT_EQ(c.recv(kMs), "ok period=3");
  EXPECT_THROW(c.recv(kMs), ConnError);  // EOF
}

TEST(ClientConn, LineOverTheCapIsAnError) {
  TempDir d;
  const std::string sock = d.path + "/d.sock";
  FakeDaemon fake(sock, [](Peer& p) {
    p.reply("ok");
    send_raw(p.fd, std::string(daemon::kMaxLineBytes + 1, 'a'));
    p.line();  // hold the connection until the client hangs up
  });
  Conn c(sock);
  EXPECT_EQ(c.recv(kMs), "ok");
  try {
    c.recv(kMs);
    ADD_FAILURE() << "an over-cap line was buffered";
  } catch (const ConnError& e) {
    EXPECT_NE(std::string(e.what()).find("over"), std::string::npos)
        << e.what();
  }
  c.shutdown();
}

TEST(ClientPipeline, OutOfOrderAnswersComeBackInRequestOrder) {
  TempDir d;
  const std::string sock = d.path + "/d.sock";
  std::size_t most_unanswered = 0;
  std::optional<FakeDaemon> fake;
  fake.emplace(sock, [&](Peer& p) {
    // Answer each pair of requests in reverse, and check that the client
    // never has more than its window of 2 unanswered.
    for (int pair = 0; pair < 3; ++pair) {
      std::vector<daemon::TaggedLine> reqs;
      std::vector<std::string> raw;
      for (int k = 0; k < 2; ++k) {
        raw.push_back(p.line().value_or(""));
      }
      if (p.line(50)) most_unanswered = 3;
      for (const std::string& r : raw) {
        reqs.push_back(daemon::split_request_tag(r));
      }
      most_unanswered = std::max<std::size_t>(most_unanswered, reqs.size());
      std::reverse(reqs.begin(), reqs.end());
      for (const daemon::TaggedLine& t : reqs) {
        p.reply(daemon::tag_response(
            t.id, t.body == "fail" ? daemon::err_response("no")
                                   : "ok body=" + std::string(t.body)));
      }
    }
  });
  Conn c(sock);
  const std::vector<std::string> answers =
      pipeline(c, {"a", "b", "fail", "d", "e", "f"}, 2);
  fake.reset();  // joins the script before its findings are read
  EXPECT_EQ(answers, (std::vector<std::string>{"ok body=a", "ok body=b",
                                               "err no", "ok body=d",
                                               "ok body=e", "ok body=f"}));
  EXPECT_EQ(most_unanswered, 2u);
}

TEST(ClientPipeline, StrayOrDuplicateIdsAreErrors) {
  TempDir d;
  const std::string sock = d.path + "/d.sock";
  const std::vector<std::string> replies[] = {
      {"@0 ok", "@0 ok"},    // duplicated
      {"@0 ok", "@7 ok"},    // never requested
      {"@0 ok", "ok"},       // untagged
      {"@0 ok"},             // then EOF
  };
  for (const std::vector<std::string>& script : replies) {
    SCOPED_TRACE(testing::PrintToString(script));
    FakeDaemon fake(sock, [&](Peer& p) {
      p.line();
      p.line();
      for (const std::string& r : script) p.reply(r);
    });
    Conn c(sock);
    EXPECT_THROW(pipeline(c, {"x", "y"}, 2), ConnError);
  }
}

TEST(ClientPrometheus, ParsesTheExportersText) {
  if (!obs::enabled()) GTEST_SKIP() << "observability layer compiled out";
  obs::counter("t_client_total", {{"verb", "add-user"}, {"outcome", "ok"}})
      .inc(7);
  obs::gauge("t_client_gauge").set(-3);
  obs::histogram("t_client_ns", {{"verb", "ping"}}, {10, 100}).observe(40);
  const std::vector<PromSample> samples =
      parse_prometheus(obs::MetricsRegistry::instance().prometheus() +
                       "# HELP comment\n\nt_client_junk{verb=\"x\"}\n");
  const auto find = [&](const std::string& name,
                        const std::map<std::string, std::string>& labels) {
    const auto it = std::find_if(
        samples.begin(), samples.end(), [&](const PromSample& s) {
          return s.name == name && s.labels == labels;
        });
    return it == samples.end() ? std::optional<double>() : it->value;
  };
  EXPECT_EQ(find("t_client_total", {{"verb", "add-user"}, {"outcome", "ok"}}),
            7.0);
  EXPECT_EQ(find("t_client_gauge", {}), -3.0);
  EXPECT_EQ(find("t_client_ns_bucket", {{"verb", "ping"}, {"le", "10"}}), 0.0);
  EXPECT_EQ(find("t_client_ns_bucket", {{"verb", "ping"}, {"le", "100"}}),
            1.0);
  EXPECT_EQ(find("t_client_ns_bucket", {{"verb", "ping"}, {"le", "+Inf"}}),
            1.0);
  EXPECT_EQ(find("t_client_ns_sum", {{"verb", "ping"}}), 40.0);
  EXPECT_EQ(find("t_client_ns_count", {{"verb", "ping"}}), 1.0);
  EXPECT_EQ(find("t_client_junk", {{"verb", "x"}}), std::nullopt);
}

}  // namespace
}  // namespace dfky::client
