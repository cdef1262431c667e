// Lossy channel walkthrough: the DFKY broadcast running over a channel that
// drops, duplicates, corrupts and reorders messages — including a dropped
// New-period bundle — and catch-up from the manager's reset archive
// bringing every legitimate subscriber back while a revoked one stays
// expired.
//
// Build & run:  ./build/examples/lossy_channel
#include <cstdio>

#include "broadcast/faulty_bus.h"
#include "broadcast/provider.h"
#include "core/manager.h"
#include "rng/chacha_rng.h"

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

Bytes str(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace

int main() {
  // Deterministic: the same seeds reproduce the same faults and the same
  // recovery, message for message.
  ChaChaRng rng(2024);
  const SystemParams sp = SystemParams::create(
      Group(GroupParams::named(ParamId::kTest128)), /*v=*/3, rng);

  // 20% drop / 10% duplicate / 5% corruption, the acceptance mix.
  FaultyBus bus(FaultPlan{.seed = 7,
                          .drop_prob = 0.20,
                          .duplicate_prob = 0.10,
                          .corrupt_prob = 0.05});
  SecurityManager manager(sp, rng);

  const auto alice = manager.add_user(rng);
  const auto mallory = manager.add_user(rng);
  SubscriberClient alice_sub(sp, alice.key, manager.verification_key(), bus);
  SubscriberClient mallory_sub(sp, mallory.key, manager.verification_key(),
                               bus);
  ContentProvider tv("tv", sp, manager.public_key(),
                     manager.verification_key(), bus);

  std::printf("revoking mallory...\n");
  manager.remove_user(mallory.id, rng);
  announce_public_key(bus, sp.group, manager.signed_public_key(rng));

  // Guarantee alice misses at least one New-period bundle outright, on top
  // of whatever the probabilistic faults eat.
  bus.drop_next_change_periods(1);

  for (int t = 0; t < 5; ++t) {
    announce_reset(bus, sp.group, manager.new_period(rng));
    announce_public_key(bus, sp.group, manager.signed_public_key(rng));
    for (int c = 0; c < 4; ++c) tv.broadcast(str("episode"), rng);
    std::printf(
        "period %llu | alice: %-7s period=%llu got=%zu | "
        "mallory: %-7s period=%llu got=%zu\n",
        (unsigned long long)manager.period(), state_name(alice_sub.state()),
        (unsigned long long)alice_sub.period(),
        alice_sub.received_content().size(), state_name(mallory_sub.state()),
        (unsigned long long)mallory_sub.period(),
        mallory_sub.received_content().size());
  }

  std::printf("\nchannel heals; both subscribers catch up, one more "
              "broadcast...\n");
  bus.heal();
  announce_public_key(bus, sp.group, manager.signed_public_key(rng));
  // Each subscriber takes what it missed from the manager's archive: the
  // signed bundles since its period (or a signed eviction verdict, had it
  // slept past the archive).
  std::size_t replayed[2] = {0, 0};
  SubscriberClient* subs[2] = {&alice_sub, &mallory_sub};
  for (int i = 0; i < 2; ++i) {
    Receiver& rx = subs[i]->receiver();
    const SecurityManager::CatchUp cu =
        manager.handle_catch_up(rx.period(), 0, rng);
    for (const SignedResetBundle& b : cu.bundles) {
      if (rx.apply_reset(b) == ResetOutcome::kApplied) ++replayed[i];
    }
    if (cu.verdict) rx.apply_eviction(*cu.verdict);
  }
  tv.broadcast(str("season finale"), rng);

  const auto& counters = bus.fault_counters();
  std::printf(
      "\nchannel: %llu published, %llu dropped (%llu targeted), "
      "%llu duplicated, %llu corrupted\n",
      (unsigned long long)counters.published,
      (unsigned long long)counters.dropped,
      (unsigned long long)counters.targeted_drops,
      (unsigned long long)counters.duplicated,
      (unsigned long long)counters.corrupted);
  std::printf("catch-up: alice applied %zu signed bundle(s), mallory %zu\n",
              replayed[0], replayed[1]);

  const bool alice_ok =
      alice_sub.state() == ReceiverState::kCurrent &&
      alice_sub.period() == manager.period() &&
      !alice_sub.received_content().empty() &&
      alice_sub.received_content().back() == str("season finale");
  const bool mallory_out = mallory_sub.received_content().empty();
  std::printf("alice:   %s at period %llu, saw the finale: %s\n",
              state_name(alice_sub.state()),
              (unsigned long long)alice_sub.period(),
              alice_ok ? "yes" : "NO");
  std::printf("mallory: period %llu, content received: %zu (expired, the "
              "archive served her the bundles but they do not open)\n",
              (unsigned long long)mallory_sub.period(),
              mallory_sub.received_content().size());
  return alice_ok && mallory_out ? 0 : 1;
}
