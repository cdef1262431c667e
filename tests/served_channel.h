// The broadcast channel as receivers see it, in process: a deployment in
// memory (MemFileIo) behind dfkyd's RequestHandler, whose publish hook
// keeps every served `bcast` line in order, and subscribers that apply
// those lines through client::apply_frame. No socket and no reactor: the
// lines are the ones dfkyd's FeedHub would fan out, byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/client.h"
#include "core/keyfile.h"
#include "core/manager.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "daemon/shard.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

namespace dfky::test {

/// One subscriber: the key `add-user` issued, the shard that issued it, and
/// a tally of what the served lines did to it.
struct Subscriber {
  Subscriber(std::uint64_t user_id, std::size_t user_shard, Receiver receiver)
      : id(user_id), shard(user_shard), rx(std::move(receiver)) {}

  std::uint64_t id = 0;
  std::size_t shard = 0;
  Receiver rx;
  std::vector<Bytes> content;    // payloads opened, in order
  std::size_t missed = 0;        // its shard's content it could not open
  std::size_t failed_resets = 0;  // resets its key cannot follow
  std::size_t gaps = 0;          // times it turned stale from current

  client::FrameOutcome apply(std::string_view line) {
    const bool was_current = rx.state() == ReceiverState::kCurrent;
    client::FrameResult r = client::apply_frame(rx, shard, line);
    switch (r.outcome) {
      case client::FrameOutcome::kOpened:
        content.push_back(std::move(r.payload));
        break;
      case client::FrameOutcome::kNotOpened: ++missed; break;
      case client::FrameOutcome::kCannotFollow: ++failed_resets; break;
      default: break;
    }
    if (was_current && rx.state() == ReceiverState::kStale) ++gaps;
    return r.outcome;
  }
};

class ServedChannel {
 public:
  /// Serves `managers`, one per shard, with per-shard generators seeded
  /// from `seed`.
  explicit ServedChannel(std::vector<SecurityManager> managers,
                         std::uint64_t seed = 100) {
    ChaChaRng rng(seed);
    router_.emplace(
        create_shard_set(fs_, "store", std::move(managers), rng),
        [seed](std::size_t k) { return std::make_unique<ChaChaRng>(seed + k); });
    daemon::RequestHandler::Hooks hooks;
    hooks.publish = [this](std::string line, std::uint64_t) {
      std::lock_guard lk(mu_);
      lines_.push_back(std::move(line));
    };
    handler_.emplace(*router_, std::move(hooks));
  }
  explicit ServedChannel(SecurityManager mgr, std::uint64_t seed = 100)
      : ServedChannel(one(std::move(mgr)), seed) {}

  /// `line` through the handler; the answer's fields. Fails the test on
  /// an `err` answer.
  daemon::Response ok(const std::string& line) {
    const daemon::RequestHandler::Result res = handler_->handle(line);
    std::optional<daemon::Response> r = daemon::parse_response(res.response);
    EXPECT_TRUE(r && r->ok) << line << " -> " << res.response;
    return r ? std::move(*r) : daemon::Response{};
  }

  /// `add-user`, as a subscriber of the issuing shard holds its key.
  Subscriber add_user() {
    const daemon::Response r = ok("add-user");
    const KeyFileData kf =
        decode_key_file(*daemon::hex_decode(r.fields.at("key")));
    return Subscriber(*daemon::parse_u64(r.fields.at("id")),
                      *daemon::parse_u64(r.fields.at("shard")),
                      Receiver(kf.sp, kf.key, kf.manager_vk));
  }

  /// `encrypt` of `payload` sealed on `shard`.
  void encrypt(std::string_view payload, std::size_t shard = 0) {
    ok("encrypt " + daemon::hex_encode(Bytes(payload.begin(), payload.end())) +
       " " + std::to_string(shard));
  }

  /// The lines published since the last take(), in order.
  std::vector<std::string> take() {
    std::lock_guard lk(mu_);
    return std::exchange(lines_, {});
  }

  daemon::ShardRouter& router() { return *router_; }

 private:
  static std::vector<SecurityManager> one(SecurityManager mgr) {
    std::vector<SecurityManager> v;
    v.push_back(std::move(mgr));
    return v;
  }

  MemFileIo fs_;
  std::optional<daemon::ShardRouter> router_;
  std::optional<daemon::RequestHandler> handler_;
  std::mutex mu_;  // a revoke publishes from its shard's committer
  std::vector<std::string> lines_;
};

inline Bytes str(std::string_view s) { return Bytes(s.begin(), s.end()); }

}  // namespace dfky::test
