// dfkyd's streaming front end in process, for the catch-up tests:
//
//  - FeedFrontEnd: the real Reactor on a fresh unix socket with a FeedHub
//    wired in, requests answered by a caller-supplied handler.
//  - FeedServer: a ShardRouter over in-memory shard stores whose catch_up
//    is the hub's replay source, behind a FeedFrontEnd. A `subscribe
//    [from]` on its socket runs exactly the daemon's catch-up path.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/keyfile.h"
#include "core/manager.h"
#include "daemon/feed.h"
#include "daemon/protocol.h"
#include "daemon/reactor.h"
#include "daemon/shard.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

namespace dfky::test {

using FeedHandler = std::function<void(const std::string&, daemon::Reply)>;

class FeedFrontEnd {
 public:
  /// Serves `hub` on a fresh socket; requests other than `subscribe` go to
  /// `handler` (by default each is answered `err`).
  explicit FeedFrontEnd(daemon::FeedHub& hub, FeedHandler handler = {}) {
    char tmpl[] = "/tmp/dfky_feed_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    sock_ = dir_ + "/d.sock";
    lfd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(lfd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock_.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    EXPECT_EQ(::listen(lfd_, 1024), 0);
    EXPECT_EQ(::pipe2(wake_, O_CLOEXEC), 0);
    if (!handler) {
      handler = [](const std::string& line, daemon::Reply reply) {
        const daemon::TaggedLine t = daemon::split_request_tag(line);
        reply({daemon::tag_response(t.id, daemon::err_response("no verbs")),
               false});
      };
    }
    daemon::ReactorOptions opts;
    opts.listen_fd = lfd_;
    opts.wake_fd = wake_[0];
    opts.workers = 2;
    opts.feed = &hub;
    const int wake_wr = wake_[1];
    reactor_.emplace(opts, std::move(handler), std::function<std::size_t()>{},
                     [wake_wr] {
                       const char b = 1;
                       [[maybe_unused]] const ssize_t n =
                           ::write(wake_wr, &b, 1);
                     });
    thr_ = std::thread([this] { reactor_->run(); });
  }

  ~FeedFrontEnd() {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_[1], &b, 1);
    thr_.join();
    ::close(lfd_);
    ::close(wake_[0]);
    ::close(wake_[1]);
    ::unlink(sock_.c_str());
    ::rmdir(dir_.c_str());
  }

  FeedFrontEnd(const FeedFrontEnd&) = delete;
  FeedFrontEnd& operator=(const FeedFrontEnd&) = delete;

  const std::string& sock() const { return sock_; }
  daemon::Reactor& reactor() { return *reactor_; }

 private:
  std::string dir_;
  std::string sock_;
  int lfd_ = -1;
  int wake_[2] = {-1, -1};
  std::optional<daemon::Reactor> reactor_;
  std::thread thr_;
};

class FeedServer {
 public:
  /// Serves `mgr` as a plain (one-shard) store.
  explicit FeedServer(SecurityManager mgr)
      : FeedServer([&mgr] {
          std::vector<SecurityManager> one;
          one.push_back(std::move(mgr));
          return one;
        }()) {}

  /// Serves `managers`, one per shard of the root `store`.
  explicit FeedServer(std::vector<SecurityManager> managers) {
    ChaChaRng rng(77);
    router_.emplace(
        create_shard_set(fs_, "store", std::move(managers), rng),
        [](std::size_t k) { return std::make_unique<ChaChaRng>(100 + k); });
    hub_.set_replay([this](std::optional<std::uint64_t> from) {
      return router_->catch_up(from);
    });
    front_.emplace(hub_);
  }

  daemon::ShardRouter& router() { return *router_; }
  const std::string& sock() const { return front_->sock(); }
  daemon::Reactor& reactor() { return front_->reactor(); }

  /// Adds `n` users through the shards' committers; their key files.
  std::vector<KeyFileData> add_users(std::size_t n) {
    std::vector<std::future<Bytes>> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto added = std::make_shared<std::promise<Bytes>>();
      keys.push_back(added->get_future());
      router_->add_user([added](daemon::ShardRouter::AddedUser u,
                                std::exception_ptr error) {
        if (error) {
          added->set_exception(error);
        } else {
          added->set_value(std::move(u.key_file));
        }
      });
    }
    std::vector<KeyFileData> out;
    out.reserve(n);
    for (std::future<Bytes>& k : keys) out.push_back(decode_key_file(k.get()));
    return out;
  }

 private:
  MemFileIo fs_;
  std::optional<daemon::ShardRouter> router_;
  daemon::FeedHub hub_;
  std::optional<FeedFrontEnd> front_;  // last: stops before the router goes
};

}  // namespace dfky::test
