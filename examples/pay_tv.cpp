// Pay-TV: the paper's motivating scenario (Sect. 1.1) end to end.
//
// Several independent content providers broadcast over one shared
// infrastructure (server-side scalability): each channel only calls the
// manager's `encrypt`, and none holds any secret. Subscribers come and go
// (client-side scalability). The deployment is a shard root in a
// temporary directory, driven through dfkyd's RequestHandler exactly as
// the offline `dfky_cli` verbs drive it; every `bcast` line it publishes
// is what dfkyd's feed would push, and each subscriber applies it with
// client::apply_frame. The example prints the real wire costs.
//
// Build & run:  ./build/examples/pay_tv
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/client.h"
#include "core/keyfile.h"
#include "core/manager.h"
#include "daemon/daemon.h"
#include "rng/system_rng.h"
#include "store/file_io.h"
#include "store/store.h"

using namespace dfky;

namespace {

struct Subscriber {
  Subscriber(std::uint64_t user_id, std::size_t user_shard, Receiver receiver)
      : id(user_id), shard(user_shard), rx(std::move(receiver)) {}

  std::uint64_t id = 0;
  std::size_t shard = 0;
  Receiver rx;
  std::size_t received = 0, missed = 0, failed_resets = 0;
};

int run(const std::string& root) {
  SystemRng rng;
  const SystemParams sp =
      SystemParams::create(Group(GroupParams::named(ParamId::kSec512)),
                           /*v=*/4, rng);
  RealFileIo io;
  std::vector<SecurityManager> managers;
  managers.emplace_back(sp, rng, ResetMode::kHybrid);
  daemon::ShardRouter router(
      create_shard_set(io, root, std::move(managers), rng),
      [](std::size_t) { return std::make_unique<SystemRng>(); });

  // The feed: every line the deployment publishes, in order.
  std::mutex feed_mu;
  std::vector<std::string> feed;
  daemon::RequestHandler::Hooks hooks;
  hooks.publish = [&](std::string line, std::uint64_t) {
    std::lock_guard lk(feed_mu);
    feed.push_back(std::move(line));
  };
  daemon::RequestHandler handler(router, std::move(hooks));
  const auto request = [&handler](const std::string& line) {
    const std::string answer = handler.handle(line).response;
    std::optional<daemon::Response> r = daemon::parse_response(answer);
    if (!r || !r->ok) throw ContractError(line + ": " + answer);
    return std::move(*r);
  };

  // Subscribers join over time.
  std::vector<Subscriber> subscribers;
  const auto join = [&] {
    const daemon::Response r = request("add-user");
    const KeyFileData kf =
        decode_key_file(*daemon::hex_decode(r.fields.at("key")));
    return Subscriber{*daemon::parse_u64(r.fields.at("id")),
                      *daemon::parse_u64(r.fields.at("shard")),
                      Receiver(kf.sp, kf.key, kf.manager_vk)};
  };
  for (int i = 0; i < 6; ++i) subscribers.push_back(join());
  std::printf("6 subscribers joined; period %llu\n",
              static_cast<unsigned long long>(router.status().period));

  // Hands the new feed lines to every subscriber, tallying the wire.
  std::size_t frames = 0, content_bytes = 0, reset_bytes = 0;
  const auto deliver = [&] {
    std::vector<std::string> lines;
    {
      std::lock_guard lk(feed_mu);
      lines.swap(feed);
    }
    for (const std::string& line : lines) {
      ++frames;
      (line.starts_with("bcast encrypt ") ? content_bytes : reset_bytes) +=
          line.size() + 1;
      for (Subscriber& s : subscribers) {
        switch (client::apply_frame(s.rx, s.shard, line).outcome) {
          case client::FrameOutcome::kOpened: ++s.received; break;
          case client::FrameOutcome::kNotOpened: ++s.missed; break;
          case client::FrameOutcome::kCannotFollow: ++s.failed_resets; break;
          default: break;
        }
      }
    }
  };
  // A channel is anyone who calls `encrypt`: three share the deployment.
  const auto broadcast = [&](const char* channel, const std::string& text) {
    request("encrypt " + daemon::hex_encode(Bytes(text.begin(), text.end())));
    std::printf("%-10s %s\n", channel, text.c_str());
    deliver();
  };

  broadcast("SportsOne", "goal! 1-0");
  broadcast("MovieMax", "tonight: PODC the movie");

  // Subscriber #2 stops paying: revoke. Only the public key changes, and
  // the next encrypt seals under it.
  request("revoke " + std::to_string(subscribers[2].id));
  broadcast("NewsNow", "headline: traitor revoked");

  // Churn until the saturation limit forces a period change; the signed
  // reset rides the same feed and every active subscriber follows.
  for (int i = 0; i < 4; ++i) {
    const Subscriber churn = join();
    const daemon::Response r = request("revoke " + std::to_string(churn.id));
    if (!r.fields.at("bundles").empty()) {
      std::printf("period change -> %s (reset bundle: %zu bytes)\n",
                  r.fields.at("period").c_str(),
                  r.fields.at("bundles").size() / 2);
    }
    deliver();
  }
  broadcast("SportsOne", "full time");

  // Scorecard.
  std::printf("\n%12s %10s %10s %14s %14s\n", "subscriber", "period",
              "received", "missed", "failed-resets");
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    const Subscriber& s = subscribers[i];
    std::printf("%12zu %10llu %10zu %14zu %14zu%s\n", i,
                static_cast<unsigned long long>(s.rx.period()), s.received,
                s.missed, s.failed_resets, i == 2 ? "   <- revoked" : "");
  }
  std::printf(
      "\nfeed traffic: %zu frames, %zu bytes of hex lines "
      "(content %zu, period changes %zu)\n",
      frames, content_bytes + reset_bytes, content_bytes, reset_bytes);
  return 0;
}

}  // namespace

int main() {
  char tmpl[] = "/tmp/dfky_pay_tv_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  int rc = 1;
  try {
    rc = run(std::string(tmpl) + "/tv.d");
  } catch (const Error& e) {
    std::fprintf(stderr, "pay_tv: %s\n", e.what());
  }
  std::filesystem::remove_all(tmpl);
  return rc;
}
