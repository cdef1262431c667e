// Pay-TV: the paper's motivating scenario (Sect. 1.1) end to end.
//
// Several independent content providers broadcast over one shared
// infrastructure (server-side scalability); subscribers come and go
// (client-side scalability); all messages flow as serialized bytes over an
// in-process broadcast bus, and the example prints the real wire costs.
//
// Build & run:  ./build/examples/pay_tv
#include <cstdio>
#include <memory>
#include <string>

#include "broadcast/provider.h"
#include "core/manager.h"
#include "rng/system_rng.h"

using namespace dfky;

namespace {

Bytes str(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace

int main() {
  SystemRng rng;
  const SystemParams sp =
      SystemParams::create(Group(GroupParams::named(ParamId::kSec512)),
                           /*v=*/4, rng);
  BroadcastBus bus;
  SecurityManager manager(sp, rng, ResetMode::kHybrid);

  // Three channels share the infrastructure. None holds any secret: they
  // learn the public key from the bus like everyone else.
  ContentProvider sports("SportsOne", sp, manager.public_key(),
                         manager.verification_key(), bus);
  ContentProvider movies("MovieMax", sp, manager.public_key(),
                         manager.verification_key(), bus);
  ContentProvider news("NewsNow", sp, manager.public_key(),
                       manager.verification_key(), bus);

  // Subscribers join over time.
  std::vector<std::unique_ptr<SubscriberClient>> subscribers;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto u = manager.add_user(rng);
    ids.push_back(u.id);
    subscribers.push_back(std::make_unique<SubscriberClient>(
        sp, u.key, manager.verification_key(), bus));
  }
  std::printf("6 subscribers joined; period %llu\n",
              static_cast<unsigned long long>(manager.period()));

  sports.broadcast(str("goal! 1-0"), rng);
  movies.broadcast(str("tonight: PODC the movie"), rng);

  // Subscriber #2 stops paying: revoke. Only the public key changes; the
  // manager republishes it so providers stay current.
  manager.remove_user(ids[2], rng);
  announce_public_key(bus, sp.group, manager.signed_public_key(rng));
  news.broadcast(str("headline: traitor revoked"), rng);

  // Churn until the saturation limit forces a period change; the signed
  // reset bundle rides the same bus and every active subscriber follows.
  for (int i = 0; i < 4; ++i) {
    const auto churn = manager.add_user(rng);
    const auto bundle = manager.remove_user(churn.id, rng);
    if (bundle) {
      announce_reset(bus, sp.group, *bundle);
      std::printf("period change -> %llu (reset bundle: %zu bytes)\n",
                  static_cast<unsigned long long>(manager.period()),
                  bundle->wire_size(sp.group));
    }
    announce_public_key(bus, sp.group, manager.signed_public_key(rng));
  }
  sports.broadcast(str("full time"), rng);

  // Scorecard.
  std::printf("\n%12s %10s %10s %14s %14s\n", "subscriber", "period",
              "received", "missed", "failed-resets");
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    const auto& s = *subscribers[i];
    std::printf("%12zu %10llu %10zu %14zu %14zu%s\n", i,
                static_cast<unsigned long long>(s.period()),
                s.received_content().size(), s.missed_broadcasts(),
                s.failed_resets(), i == 2 ? "   <- revoked" : "");
  }
  std::printf(
      "\nbus traffic: %llu messages, %llu bytes total "
      "(content %llu, key updates %llu, period changes %llu)\n",
      static_cast<unsigned long long>(bus.messages_sent()),
      static_cast<unsigned long long>(bus.bytes_sent()),
      static_cast<unsigned long long>(bus.bytes_sent(MsgType::kContent)),
      static_cast<unsigned long long>(
          bus.bytes_sent(MsgType::kPublicKeyUpdate)),
      static_cast<unsigned long long>(
          bus.bytes_sent(MsgType::kChangePeriod)));
  return 0;
}
