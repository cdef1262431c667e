// client::apply_frame on served lines: the `bcast` lines dfkyd's
// RequestHandler publishes, applied to receivers issued by its `add-user`,
// plus hand-damaged copies of them. Every outcome the function reports is
// reached here, and no line's content makes it throw.
#include <gtest/gtest.h>

#include "client/client.h"
#include "core/manager.h"
#include "rng/chacha_rng.h"
#include "served_channel.h"
#include "test_util.h"

namespace dfky {
namespace {

using client::FrameOutcome;
using test::str;

/// A channel of `shards` shards (v = 3), deterministic seeds.
test::ServedChannel make_channel(std::size_t shards = 1) {
  ChaChaRng rng(900);
  const SystemParams sp = test::test_params(3, 901);
  std::vector<SecurityManager> managers;
  for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, rng);
  return test::ServedChannel(std::move(managers), 910);
}

/// The only line `channel` published since the last take.
std::string one_line(test::ServedChannel& channel) {
  std::vector<std::string> lines = channel.take();
  EXPECT_EQ(lines.size(), 1u);
  return lines.empty() ? std::string() : lines[0];
}

/// The bundles of a new-period line, hex.
std::vector<std::string> bundles_of(const std::string& line) {
  std::vector<std::string> out;
  std::string list = line.substr(line.find(" bundles=") + 9);
  for (std::size_t at = 0; at <= list.size();) {
    const std::size_t end = std::min(list.find(',', at), list.size());
    out.push_back(list.substr(at, end - at));
    at = end + 1;
  }
  return out;
}

std::string new_period_line(std::uint64_t period,
                            const std::vector<std::string>& bundles) {
  std::string line = "bcast new-period period=" + std::to_string(period) +
                     " bundles=";
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    line += (i > 0 ? "," : "") + bundles[i];
  }
  return line;
}

TEST(ClientFrame, OpensContentOfItsShard) {
  test::ServedChannel channel = make_channel();
  test::Subscriber sub = channel.add_user();
  channel.encrypt("hello");
  const client::FrameResult r =
      client::apply_frame(sub.rx, sub.shard, one_line(channel));
  EXPECT_EQ(r.outcome, FrameOutcome::kOpened);
  EXPECT_EQ(r.payload, str("hello"));
  EXPECT_EQ(sub.rx.state(), ReceiverState::kCurrent);
}

TEST(ClientFrame, RevokedKeyCannotOpen) {
  test::ServedChannel channel = make_channel();
  test::Subscriber sub = channel.add_user();
  channel.ok("revoke " + std::to_string(sub.id));
  channel.encrypt("members only");
  const client::FrameResult r =
      client::apply_frame(sub.rx, sub.shard, one_line(channel));
  EXPECT_EQ(r.outcome, FrameOutcome::kNotOpened);
  EXPECT_TRUE(r.payload.empty());
  // Same period: no evidence of a gap.
  EXPECT_EQ(sub.rx.state(), ReceiverState::kCurrent);
}

TEST(ClientFrame, ContentOfAnotherShardIsNotTouched) {
  test::ServedChannel channel = make_channel(2);
  test::Subscriber sub = channel.add_user();
  ASSERT_EQ(sub.shard, 0u);
  channel.encrypt("for shard one", 1);
  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard, one_line(channel)).outcome,
            FrameOutcome::kOtherShard);
  EXPECT_EQ(sub.rx.catch_up_target(), 0u);
}

TEST(ClientFrame, ResetAppliedStaleGapAndCannotFollow) {
  test::ServedChannel channel = make_channel();
  test::Subscriber sub = channel.add_user();
  test::Subscriber sleeper = channel.add_user();
  test::Subscriber revoked = channel.add_user();
  channel.ok("revoke " + std::to_string(revoked.id));
  channel.ok("new-period");
  const std::string first = one_line(channel);
  channel.ok("new-period");
  const std::string second = one_line(channel);

  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard, first).outcome,
            FrameOutcome::kApplied);
  EXPECT_EQ(sub.rx.period(), 1u);
  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard, first).outcome,
            FrameOutcome::kStale);
  EXPECT_EQ(sub.rx.period(), 1u);

  // The sleeper missed period 1: period 2's reset is a gap.
  EXPECT_EQ(client::apply_frame(sleeper.rx, sleeper.shard, second).outcome,
            FrameOutcome::kGap);
  EXPECT_EQ(sleeper.rx.state(), ReceiverState::kStale);
  EXPECT_EQ(sleeper.rx.period(), 0u);
  // The missing frame closes the gap and drains the buffered one.
  EXPECT_EQ(client::apply_frame(sleeper.rx, sleeper.shard, first).outcome,
            FrameOutcome::kApplied);
  EXPECT_EQ(sleeper.rx.period(), 2u);
  EXPECT_EQ(sleeper.rx.state(), ReceiverState::kCurrent);

  EXPECT_EQ(client::apply_frame(revoked.rx, revoked.shard, first).outcome,
            FrameOutcome::kCannotFollow);
  EXPECT_EQ(revoked.rx.period(), 0u);
}

TEST(ClientFrame, BundleOfAnotherManagerIsSkipped) {
  test::ServedChannel channel = make_channel(2);
  test::Subscriber sub = channel.add_user();
  ASSERT_EQ(sub.shard, 0u);
  channel.ok("new-period");
  const std::string line = one_line(channel);
  const std::vector<std::string> bundles = bundles_of(line);
  ASSERT_EQ(bundles.size(), 2u);

  // Shard 1's bundle alone: signed, but not by this receiver's manager.
  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard,
                                new_period_line(1, {bundles[1]}))
                .outcome,
            FrameOutcome::kUnauthenticated);
  EXPECT_EQ(sub.rx.period(), 0u);
  EXPECT_EQ(sub.rx.state(), ReceiverState::kCurrent);

  // The served line: shard 1's bundle is skipped, shard 0's applied.
  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard, line).outcome,
            FrameOutcome::kApplied);
  EXPECT_EQ(sub.rx.period(), 1u);
}

TEST(ClientFrame, DamagedLinesAreRejectedWithoutAThrow) {
  test::ServedChannel channel = make_channel();
  test::Subscriber sub = channel.add_user();
  channel.ok("new-period");
  const std::string reset = one_line(channel);
  channel.encrypt("payload");
  const std::string content = one_line(channel);
  const std::string bundle = bundles_of(reset).at(0);

  // A forged bundle: one byte of its signature flipped, still parses.
  Bytes raw = *daemon::hex_decode(bundle);
  raw.back() ^= 0x01;
  const std::string forged = new_period_line(1, {daemon::hex_encode(raw)});
  // A bundle cut short, which no longer parses.
  const std::string truncated =
      new_period_line(1, {bundle.substr(0, bundle.size() - 2)});
  const std::string ct_cut = content.substr(0, content.size() - 2);

  const std::pair<std::string, FrameOutcome> cases[] = {
      {forged, FrameOutcome::kUnauthenticated},
      {truncated, FrameOutcome::kMalformed},
      {"bcast new-period period=1 bundles=zz", FrameOutcome::kMalformed},
      {"bcast new-period period=1", FrameOutcome::kMalformed},
      {"bcast new-period", FrameOutcome::kMalformed},
      {"bcast encrypt shard=0 bytes=1 ct=xyz", FrameOutcome::kMalformed},
      {"bcast encrypt shard=0 bytes=1", FrameOutcome::kMalformed},
      {"bcast encrypt shard=zero bytes=1 ct=00", FrameOutcome::kMalformed},
      {ct_cut, FrameOutcome::kMalformed},
      {"bcast rekey period=1", FrameOutcome::kMalformed},
      {"", FrameOutcome::kMalformed},
  };
  for (const auto& [line, want] : cases) {
    client::FrameResult r;
    EXPECT_NO_THROW(r = client::apply_frame(sub.rx, sub.shard, line)) << line;
    EXPECT_EQ(r.outcome, want) << line;
    EXPECT_EQ(sub.rx.period(), 0u) << line;
    EXPECT_EQ(sub.rx.state(), ReceiverState::kCurrent) << line;
  }
  // The genuine frames still work afterwards.
  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard, reset).outcome,
            FrameOutcome::kApplied);
  EXPECT_EQ(client::apply_frame(sub.rx, sub.shard, content).outcome,
            FrameOutcome::kOpened);
}

TEST(ClientFrame, ReplayAndLiveFrameMoveAReceiverAlike) {
  test::ServedChannel channel = make_channel(2);
  test::Subscriber live = channel.add_user();
  ASSERT_EQ(live.shard, 0u);
  Receiver replayed = live.rx;
  channel.ok("new-period");
  const std::string line = one_line(channel);

  EXPECT_EQ(client::apply_frame(live.rx, live.shard, line).outcome,
            FrameOutcome::kApplied);
  daemon::FeedReplay rep;
  rep.current = 1;
  rep.lines.push_back(line);
  const client::CatchUpReport report = client::apply_replay(replayed, rep);
  EXPECT_EQ(report.applied, 1u);
  EXPECT_EQ(report.cannot_follow, 0u);

  EXPECT_EQ(replayed.period(), live.rx.period());
  EXPECT_EQ(replayed.state(), live.rx.state());
  EXPECT_EQ(replayed.key().ax, live.rx.key().ax);
  EXPECT_EQ(replayed.key().bx, live.rx.key().bx);

  // A malformed replay answer still throws DecodeError.
  rep.lines = {"bcast new-period period=1 bundles=zz"};
  EXPECT_THROW(client::apply_replay(replayed, rep), DecodeError);
  rep.lines = {"bcast encrypt shard=0 bytes=1 ct=00"};
  EXPECT_THROW(client::apply_replay(replayed, rep), DecodeError);
}

}  // namespace
}  // namespace dfky
