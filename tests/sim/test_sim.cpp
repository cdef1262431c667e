// Seeded fault workloads over the in-process cluster simulator
// (DESIGN.md Sect. 12). Every test sweeps DFKY_SIM_SEEDS seeds (default 5;
// CI sanitizer sweeps run 20) and reports the failing seed via
// SCOPED_TRACE. The invariants, per seed:
//
//   * no acked mutation is lost by any single-node kill — an ack means
//     durable on the primary and on every live follower;
//   * the surviving replicas converge to one epoch, even when a primary
//     dies inside the cross-shard new-period barrier;
//   * a promoted follower serves the full acked history, and serves new
//     mutations with working keys.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/content.h"
#include "core/keyfile.h"
#include "daemon/protocol.h"
#include "rng/chacha_rng.h"
#include "serial/codec.h"
#include "sim/sim_cluster.h"

namespace dfky::sim {
namespace {

using daemon::Response;

std::size_t sweep_seeds() {
  if (const char* env = std::getenv("DFKY_SIM_SEEDS")) {
    const auto n = daemon::parse_u64(env);
    if (n && *n > 0) return static_cast<std::size_t>(*n);
  }
  return 5;
}

/// Sends `line` to `node` and requires an ok response.
Response ok(SimNode& node, const std::string& line) {
  const auto raw = node.request(line);
  EXPECT_TRUE(raw.has_value()) << line << " on a dead node";
  if (!raw) return Response{};
  const auto r = daemon::parse_response(*raw);
  EXPECT_TRUE(r.has_value()) << line << " -> " << *raw;
  if (!r) return Response{};
  EXPECT_TRUE(r->ok) << line << " -> " << *raw;
  return *r;
}

/// What the client was told is durable. Only acked operations are
/// recorded; an err response promises nothing.
struct Acked {
  std::vector<std::pair<std::uint64_t, std::string>> users;  // id, key hex
  std::set<std::uint64_t> revoked;
  std::uint64_t barriers = 0;
};

/// A seeded client load against the primary: adds, revocations (of a
/// random not-yet-revoked user) and explicit epoch barriers. Every op
/// here must ack. Each revoke is chased by a barrier so a saturated
/// shard's reactive per-shard reset can never leave the set on mixed
/// epochs — the workloads assert epoch uniformity at every quiescent
/// point.
void run_load(SimNode& prim, ChaChaRng& rng, std::size_t ops, Acked* acked) {
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t draw = rng.u64() % 10;
    if (draw < 7 || acked->users.size() <= acked->revoked.size()) {
      const Response r = ok(prim, "add-user");
      if (r.fields.contains("id")) {
        acked->users.emplace_back(*daemon::parse_u64(r.fields.at("id")),
                                  r.fields.at("key"));
      }
    } else if (draw < 8) {
      std::vector<std::uint64_t> pool;
      for (const auto& [id, key] : acked->users) {
        (void)key;
        if (!acked->revoked.contains(id)) pool.push_back(id);
      }
      const std::uint64_t victim = pool[rng.u64() % pool.size()];
      ok(prim, "revoke " + std::to_string(victim));
      acked->revoked.insert(victim);
      ok(prim, "new-period");
      ++acked->barriers;
    } else {
      ok(prim, "new-period");
      ++acked->barriers;
    }
  }
}

/// All shard periods of `node` equal; returns that one epoch.
std::uint64_t one_epoch(SimNode& node) {
  const Response st = ok(node, "status");
  const std::string periods = st.fields.at("periods");
  std::set<std::string> distinct;
  std::size_t from = 0;
  while (from <= periods.size()) {
    const std::size_t comma = periods.find(',', from);
    distinct.insert(periods.substr(
        from, comma == std::string::npos ? std::string::npos : comma - from));
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  EXPECT_EQ(distinct.size(), 1u) << "mixed epochs: " << periods;
  return *daemon::parse_u64(st.fields.at("period"));
}

/// The node accepts an add, and the key it issues opens a fresh broadcast
/// from the same node — the end-to-end liveness check for a (promoted)
/// primary.
void expect_serves(SimNode& node) {
  const Response added = ok(node, "add-user");
  const KeyFileData kf =
      decode_key_file(*daemon::hex_decode(added.fields.at("key")));
  const std::string shard = added.fields.at("shard");
  const Bytes payload = {0x42, 0x42, 0x42};
  const Response enc =
      ok(node, "encrypt " + daemon::hex_encode(payload) + " " + shard);
  const Bytes ct = *daemon::hex_decode(enc.fields.at("ct"));
  Reader r(ct);
  const ContentMessage msg = ContentMessage::deserialize(r, kf.sp.group);
  r.expect_end();
  EXPECT_EQ(open_content(kf.sp, kf.key, msg), payload);
}

/// The acked history as the survivor must serve it.
void expect_history(SimNode& node, const Acked& acked) {
  const Response st = ok(node, "status");
  EXPECT_EQ(st.fields.at("active"),
            std::to_string(acked.users.size() - acked.revoked.size()));
  EXPECT_EQ(st.fields.at("revoked"), std::to_string(acked.revoked.size()));
}

/// Reopens a durable disk image and counts users across shards — the
/// "what actually survives a power cut" check.
std::size_t durable_users(const SimNode& node) {
  MemFileIo disk = node.durable_disk();
  const std::vector<StateStore> stores = open_shard_set(disk, "store");
  std::size_t users = 0;
  for (const StateStore& s : stores) users += s.manager().users().size();
  return users;
}

// ---- workloads -----------------------------------------------------------------

constexpr auto kConvergeBudget = std::chrono::seconds(20);

TEST(SimCluster, KillPrimaryPromotesWithoutLoss) {
  for (std::uint64_t seed = 1; seed <= sweep_seeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimCluster c(/*shards=*/2, /*followers=*/1, seed);
    ChaChaRng rng(seed * 7 + 1);
    Acked acked;
    run_load(c.primary(), rng, 20, &acked);

    c.kill_primary();
    const Response pr = ok(c.follower(0), "promote");
    EXPECT_EQ(pr.fields.at("role"), "primary");

    // Full acked history, one epoch, still serving, and all of it durable.
    expect_history(c.follower(0), acked);
    one_epoch(c.follower(0));
    expect_serves(c.follower(0));
    EXPECT_EQ(durable_users(c.follower(0)), acked.users.size() + 1);
  }
}

TEST(SimCluster, KillFollowerDegradesThenCatchesUp) {
  for (std::uint64_t seed = 1; seed <= sweep_seeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimCluster c(/*shards=*/2, /*followers=*/2, seed);
    ChaChaRng rng(seed * 7 + 2);
    Acked acked;
    run_load(c.primary(), rng, 8, &acked);

    c.kill_follower(1);
    // The primary keeps acking: the dead follower stops gating.
    run_load(c.primary(), rng, 8, &acked);

    c.restart_follower(1, seed + 500);
    ASSERT_TRUE(c.wait_converged(kConvergeBudget));
    for (std::size_t i = 0; i < c.followers(); ++i) {
      expect_history(c.follower(i), acked);
      EXPECT_EQ(one_epoch(c.follower(i)), one_epoch(c.primary()));
    }
  }
}

TEST(SimCluster, KillDuringBarrierLeavesOneEpoch) {
  for (std::uint64_t seed = 1; seed <= sweep_seeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimCluster c(/*shards=*/3, /*followers=*/1, seed);
    ChaChaRng rng(seed * 7 + 3);
    Acked acked;
    for (std::size_t i = 0; i < 8; ++i) {
      const Response r = ok(c.primary(), "add-user");
      acked.users.emplace_back(*daemon::parse_u64(r.fields.at("id")),
                               r.fields.at("key"));
    }

    // Arm a power cut inside the barrier's phase-2 window: each shard
    // costs one append and one fsync, so a seeded offset in
    // [0, 2*shards) tears the epoch mid-flight on most seeds (and lets
    // the barrier through clean on the rest — both must hold the
    // invariants).
    FilePlan plan = c.primary().disk().plan();
    plan.crash_at = c.primary().disk().fault_counters().mutating_ops +
                    rng.u64() % (2 * c.shards());
    c.primary().disk().set_plan(plan);

    const auto raw = c.primary().request("new-period");
    ASSERT_TRUE(raw.has_value());
    const auto resp = daemon::parse_response(*raw);
    ASSERT_TRUE(resp.has_value());
    const bool barrier_acked = resp->ok;

    c.kill_primary();
    ok(c.follower(0), "promote");

    // No acked mutation lost; one epoch on the survivor; if the barrier
    // was acked it must have survived too.
    expect_history(c.follower(0), acked);
    const std::uint64_t epoch = one_epoch(c.follower(0));
    if (barrier_acked) {
      EXPECT_GE(epoch, 1u);
    }
    expect_serves(c.follower(0));
    EXPECT_EQ(durable_users(c.follower(0)), acked.users.size() + 1);
  }
}

TEST(SimCluster, PartitionThenHealConverges) {
  for (std::uint64_t seed = 1; seed <= sweep_seeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimCluster c(/*shards=*/2, /*followers=*/1, seed);
    ChaChaRng rng(seed * 7 + 4);
    Acked acked;
    run_load(c.primary(), rng, 8, &acked);

    // Cut the link. The sender marks the follower dead on its next
    // roundtrip; the primary degrades to standalone acks.
    c.set_partitioned(0, true);
    run_load(c.primary(), rng, 8, &acked);

    // Heal. The sender reconnects on its own, resyncs from repl-status
    // and ships the gap.
    c.set_partitioned(0, false);
    ASSERT_TRUE(c.wait_converged(kConvergeBudget));
    expect_history(c.follower(0), acked);
    EXPECT_EQ(one_epoch(c.follower(0)), one_epoch(c.primary()));
    // Still a read-only replica after all that.
    const auto raw = c.follower(0).request("add-user");
    ASSERT_TRUE(raw.has_value());
    EXPECT_FALSE(daemon::parse_response(*raw)->ok);
  }
}

TEST(SimCluster, SlowFollowerConvergesByteIdentical) {
  for (std::uint64_t seed = 1; seed <= sweep_seeds(); ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // A lossy, duplicating network: acks vanish (the sender must resync
    // and re-deliver — idempotent replay) and lines arrive twice.
    SimCluster c(/*shards=*/2, /*followers=*/2, seed,
                 LinkFaults{.ack_loss_per_mille = 200, .dup_per_mille = 200});
    ChaChaRng rng(seed * 7 + 5);
    Acked acked;
    run_load(c.primary(), rng, 25, &acked);

    ASSERT_TRUE(c.wait_converged(kConvergeBudget));
    // Converged replicas are byte-identical to the primary's durable WAL,
    // shard by shard: same chain head, same frames.
    MemFileIo pd = c.primary().durable_disk();
    for (std::size_t i = 0; i < c.followers(); ++i) {
      expect_history(c.follower(i), acked);
      MemFileIo fd = c.follower(i).durable_disk();
      for (std::size_t k = 0; k < c.shards(); ++k) {
        const std::string dir = "store/" + shard_dir_name(k);
        const FsckReport wp = fsck_store(pd, dir, /*repair=*/false);
        const FsckReport wf = fsck_store(fd, dir, /*repair=*/false);
        ASSERT_TRUE(wp.log_readable());
        ASSERT_TRUE(wf.log_readable());
        EXPECT_EQ(wf.generation, wp.generation);
        EXPECT_EQ(wf.wal_records, wp.wal_records);
        EXPECT_EQ(wf.chain_head_hex, wp.chain_head_hex);
        EXPECT_EQ(wf.frames, wp.frames);
      }
    }
  }
}

}  // namespace
}  // namespace dfky::sim
