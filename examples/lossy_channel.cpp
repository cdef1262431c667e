// Lossy channel walkthrough: the DFKY broadcast over a feed that loses
// frames — including a New-period frame — and catch-up from the manager's
// reset archive bringing every legitimate subscriber back while a revoked
// one stays expired.
//
// The deployment is a shard root in a temporary directory, driven through
// dfkyd's RequestHandler as the offline `dfky_cli` verbs drive it. Its
// published `bcast` lines pass a seeded drop rule on the way to the two
// subscribers, who apply what arrives with client::apply_frame; once the
// channel heals each catches up with ShardRouter::catch_up (the answer to
// `subscribe <from>`) and client::apply_replay.
//
// Build & run:  ./build/examples/lossy_channel
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
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

using namespace dfky;

namespace {

const char* state_name(ReceiverState s) {
  switch (s) {
    case ReceiverState::kCurrent:
      return "current";
    case ReceiverState::kStale:
      return "STALE";
    case ReceiverState::kUnrecoverable:
      return "UNRECOVERABLE";
  }
  return "?";
}

struct Subscriber {
  Subscriber(std::uint64_t user_id, std::size_t user_shard, Receiver receiver)
      : id(user_id), shard(user_shard), rx(std::move(receiver)) {}

  std::uint64_t id = 0;
  std::size_t shard = 0;
  Receiver rx;
  std::vector<Bytes> content;
};

int run(const std::string& root) {
  // Deterministic: the same seeds reproduce the same losses and the same
  // recovery, frame for frame.
  ChaChaRng rng(2024);
  const SystemParams sp = SystemParams::create(
      Group(GroupParams::named(ParamId::kTest128)), /*v=*/3, rng);
  RealFileIo io;
  std::vector<SecurityManager> managers;
  managers.emplace_back(sp, rng);
  daemon::ShardRouter router(
      create_shard_set(io, root, std::move(managers), rng),
      [](std::size_t k) { return std::make_unique<ChaChaRng>(2025 + k); });

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
  const auto join = [&] {
    const daemon::Response r = request("add-user");
    const KeyFileData kf =
        decode_key_file(*daemon::hex_decode(r.fields.at("key")));
    return Subscriber{*daemon::parse_u64(r.fields.at("id")),
                      *daemon::parse_u64(r.fields.at("shard")),
                      Receiver(kf.sp, kf.key, kf.manager_vk)};
  };
  Subscriber alice = join();
  Subscriber mallory = join();

  // The channel: 25% of the frames are lost, drawn from a seeded stream,
  // and the first New-period frame is lost outright so alice misses one
  // reset for certain.
  ChaChaRng channel_rng(7);
  bool lossy = true, dropped_reset = false;
  std::size_t published = 0, dropped = 0;
  const auto deliver = [&] {
    std::vector<std::string> lines;
    {
      std::lock_guard lk(feed_mu);
      lines.swap(feed);
    }
    for (const std::string& line : lines) {
      ++published;
      const bool loss = channel_rng.u64() % 4 == 0;
      const bool reset = line.starts_with("bcast new-period ");
      if (lossy && (loss || (reset && !dropped_reset))) {
        dropped_reset = dropped_reset || reset;
        ++dropped;
        continue;
      }
      for (Subscriber* s : {&alice, &mallory}) {
        client::FrameResult r = client::apply_frame(s->rx, s->shard, line);
        if (r.outcome == client::FrameOutcome::kOpened) {
          s->content.push_back(std::move(r.payload));
        }
      }
    }
  };
  const auto broadcast = [&](const std::string& text) {
    request("encrypt " + daemon::hex_encode(Bytes(text.begin(), text.end())));
    deliver();
  };

  std::printf("revoking mallory...\n");
  request("revoke " + std::to_string(mallory.id));

  for (int t = 0; t < 5; ++t) {
    request("new-period");
    deliver();
    for (int c = 0; c < 4; ++c) broadcast("episode");
    std::printf(
        "period %llu | alice: %-7s period=%llu got=%zu | "
        "mallory: %-7s period=%llu got=%zu\n",
        static_cast<unsigned long long>(router.status().period),
        state_name(alice.rx.state()),
        static_cast<unsigned long long>(alice.rx.period()),
        alice.content.size(), state_name(mallory.rx.state()),
        static_cast<unsigned long long>(mallory.rx.period()),
        mallory.content.size());
  }

  std::printf("\nchannel heals; both subscribers catch up, one more "
              "broadcast...\n");
  lossy = false;
  // Each subscriber takes what it missed from the manager's archive, as
  // `subscribe <its period>` answers it: the signed bundles since its
  // period (or a signed eviction verdict, had it slept past the archive).
  std::size_t replayed[2] = {0, 0};
  Subscriber* subs[2] = {&alice, &mallory};
  for (int i = 0; i < 2; ++i) {
    Receiver& rx = subs[i]->rx;
    replayed[i] = client::apply_replay(rx, router.catch_up(rx.period())).applied;
  }
  broadcast("season finale");

  std::printf("\nchannel: %zu frames published, %zu dropped (%s)\n",
              published, dropped,
              dropped_reset ? "one New-period frame among them" : "no reset");
  std::printf("catch-up: alice applied %zu signed bundle(s), mallory %zu\n",
              replayed[0], replayed[1]);

  const std::string finale = "season finale";
  const bool alice_ok =
      alice.rx.state() == ReceiverState::kCurrent &&
      alice.rx.period() == router.status().period && !alice.content.empty() &&
      alice.content.back() == Bytes(finale.begin(), finale.end());
  const bool mallory_out = mallory.content.empty();
  std::printf("alice:   %s at period %llu, saw the finale: %s\n",
              state_name(alice.rx.state()),
              static_cast<unsigned long long>(alice.rx.period()),
              alice_ok ? "yes" : "NO");
  std::printf("mallory: period %llu, content received: %zu (expired, the "
              "archive served her the bundles but they do not open)\n",
              static_cast<unsigned long long>(mallory.rx.period()),
              mallory.content.size());
  return alice_ok && mallory_out ? 0 : 1;
}

}  // namespace

int main() {
  char tmpl[] = "/tmp/dfky_lossy_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  int rc = 1;
  try {
    rc = run(std::string(tmpl) + "/lossy.d");
  } catch (const Error& e) {
    std::fprintf(stderr, "lossy_channel: %s\n", e.what());
  }
  std::filesystem::remove_all(tmpl);
  return rc;
}
