// E10: receiver catch-up (DESIGN.md Sect. 7.3, "Catch-up — one served
// path"). Claim: a receiver that slept through g New-period transitions
// catches up with one `subscribe from` answer whose size is linear in g, up
// to the manager's archive bound K; beyond it the answer is one signed
// eviction verdict and the receiver is terminally unrecoverable. The answer
// is built by ShardRouter::catch_up, the code dfkyd serves, and applied by
// client::apply_replay, the code every client runs.
#include <cstdio>

#include "bench_json.h"
#include "client/client.h"
#include "core/manager.h"
#include "daemon/shard.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

using namespace dfky;

namespace {

benchjson::Report g_report("recovery");

SystemParams make_params() {
  ChaChaRng rng(42);
  return SystemParams::create(Group(GroupParams::named(ParamId::kTest128)), 3,
                              rng);
}

struct CatchUpRun {
  std::size_t bundles = 0;  // replayed bundles
  std::size_t bytes = 0;    // binary bundles plus verdicts in the answer
  ReceiverState state = ReceiverState::kStale;
  bool at_period = false;  // the receiver reached the manager's period
};

/// A receiver sleeps through `gap` transitions, then catches up from its
/// issue period against a one-shard router with archive capacity K.
CatchUpRun run_gap(const SystemParams& sp, std::size_t gap,
                   std::size_t archive_capacity) {
  ChaChaRng rng(1000 + gap);
  SecurityManager mgr(sp, rng);
  mgr.set_reset_archive_capacity(archive_capacity);
  const auto u = mgr.add_user(rng);
  for (std::size_t i = 0; i < gap; ++i) mgr.new_period(rng);
  Receiver rx(sp, u.key, mgr.verification_key());

  MemFileIo fs;
  std::vector<StateStore> stores;
  stores.push_back(StateStore::create(fs, "store", std::move(mgr), rng));
  daemon::ShardRouter router(std::move(stores), [gap](std::size_t) {
    return std::make_unique<ChaChaRng>(2000 + gap);
  });
  const daemon::FeedReplay rep = router.catch_up(rx.period());

  CatchUpRun run;
  // Hex on the wire: each encoded byte is two characters.
  for (const std::string& line : rep.lines) {
    const std::string_view bundles =
        std::string_view(line).substr(line.find(" bundles=") + 9);
    run.bytes += bundles.size() / 2;
  }
  for (const std::string& v : rep.verdicts) run.bytes += v.size() / 2;
  run.bundles = client::apply_replay(rx, rep).applied;
  run.state = rx.state();
  run.at_period = rx.period() == router.status().period;
  return run;
}

}  // namespace

int main() {
  std::printf("=== E10: catch-up vs gap size ===\n\n");
  const SystemParams sp = make_params();
  std::printf(
      "# E10: served catch-up vs gap size (archive capacity K = 8).\n"
      "#      One answer bridges any gap <= K; its size is linear in the\n"
      "#      gap; past K it is one signed verdict and the receiver is\n"
      "#      terminally unrecoverable.\n");
  std::printf("%6s %10s %12s %16s\n", "gap", "bundles", "answer-bytes",
              "outcome");
  const std::vector<std::size_t> gaps =
      benchjson::smoke() ? std::vector<std::size_t>{1, 4, 12}
                         : std::vector<std::size_t>{1, 2, 4, 6, 8, 9, 12};
  for (std::size_t gap : gaps) {
    const CatchUpRun r = run_gap(sp, gap, /*archive_capacity=*/8);
    const bool recovered = r.state == ReceiverState::kCurrent && r.at_period;
    std::printf("%6zu %10zu %12zu %16s\n", gap, r.bundles, r.bytes,
                recovered ? "recovered"
                : r.state == ReceiverState::kUnrecoverable ? "UNRECOVERABLE"
                                                           : "stale");
    g_report.add({"catchup", gap, 3, 0, 0, r.bytes, 1});
  }
  return g_report.write() ? 0 : 1;
}
