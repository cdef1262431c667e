// The dfkyd building blocks, socket-free: the line protocol's strict
// parsers, the group-commit queue's durability/batching/error semantics,
// and RequestHandler driven line-by-line against an in-memory store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/content.h"
#include "core/keyfile.h"
#include "daemon/daemon.h"
#include "daemon/group_commit.h"
#include "daemon/protocol.h"
#include "rng/chacha_rng.h"
#include "serial/codec.h"
#include "store/store.h"
#include "test_util.h"

namespace dfky::daemon {
namespace {

// ---- protocol helpers ---------------------------------------------------------

TEST(Protocol, ParseU64AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("8"), 8u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
}

TEST(Protocol, ParseU64RejectsEverythingStoulWouldLetThrough) {
  // std::stoul accepts all of these (wrapping, trimming or truncating);
  // the daemon and the CLI must not.
  EXPECT_FALSE(parse_u64("-5"));     // stoull wraps to 2^64-5
  EXPECT_FALSE(parse_u64("+5"));
  EXPECT_FALSE(parse_u64(" 8"));
  EXPECT_FALSE(parse_u64("8 "));
  EXPECT_FALSE(parse_u64("8junk"));  // stoull stops at the junk
  EXPECT_FALSE(parse_u64("0x10"));
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("banana"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));      // 2^64
  EXPECT_FALSE(parse_u64("99999999999999999999999"));   // > 20 digits
}

TEST(Protocol, HexRoundTrips) {
  const Bytes data = {0x00, 0x0f, 0xf0, 0xff, 0x5a};
  EXPECT_EQ(hex_encode(data), "000ff0ff5a");
  EXPECT_EQ(hex_decode("000ff0ff5a"), data);
  EXPECT_EQ(hex_decode("000FF0FF5A"), data);  // uppercase tolerated
  EXPECT_EQ(hex_decode(""), Bytes{});
  EXPECT_FALSE(hex_decode("abc"));   // odd length
  EXPECT_FALSE(hex_decode("zz"));
}

TEST(Protocol, SplitTokensCollapsesRuns) {
  EXPECT_EQ(split_tokens("  add-user   1  2 "),
            (std::vector<std::string>{"add-user", "1", "2"}));
  EXPECT_TRUE(split_tokens("   ").empty());
}

TEST(Protocol, RequestTagsSplitStrictly) {
  const TaggedLine plain = split_request_tag("status");
  EXPECT_FALSE(plain.id);
  EXPECT_FALSE(plain.bad_tag);
  EXPECT_EQ(plain.body, "status");

  const TaggedLine tagged = split_request_tag("@17 revoke 3");
  ASSERT_TRUE(tagged.id);
  EXPECT_EQ(*tagged.id, 17u);
  EXPECT_EQ(tagged.body, "revoke 3");

  const TaggedLine bare = split_request_tag("@5");
  ASSERT_TRUE(bare.id);
  EXPECT_EQ(*bare.id, 5u);
  EXPECT_EQ(bare.body, "");

  // '@' with a malformed id is an error, not a guess: parse_u64 strictness
  // applies to tags too.
  EXPECT_TRUE(split_request_tag("@").bad_tag);
  EXPECT_TRUE(split_request_tag("@x status").bad_tag);
  EXPECT_TRUE(split_request_tag("@-1 status").bad_tag);
  EXPECT_TRUE(split_request_tag("@18446744073709551616 ping").bad_tag);

  EXPECT_EQ(tag_response(std::nullopt, "ok"), "ok");
  EXPECT_EQ(tag_response(7, "ok a=b"), "@7 ok a=b");
}

TEST(Protocol, ResponsesRoundTrip) {
  EXPECT_EQ(ok_response(), "ok");
  EXPECT_EQ(ok_response({{"id", "3"}, {"key", "ab"}}), "ok id=3 key=ab");
  EXPECT_EQ(err_response("no\nnewlines\rhere"), "err no newlines here");

  const auto ok = parse_response("ok id=3 key=ab");
  ASSERT_TRUE(ok && ok->ok);
  EXPECT_EQ(ok->fields.at("id"), "3");
  EXPECT_EQ(ok->fields.at("key"), "ab");

  const auto err = parse_response("err user 7 is unknown");
  ASSERT_TRUE(err);
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error, "user 7 is unknown");

  EXPECT_FALSE(parse_response("okay"));
  EXPECT_FALSE(parse_response("ok bare-token"));
  EXPECT_FALSE(parse_response("ok =v"));
  EXPECT_FALSE(parse_response("errx"));

  // Tagged responses carry the echoed pipeline id.
  const auto tagged = parse_response("@9 ok id=3");
  ASSERT_TRUE(tagged && tagged->ok);
  ASSERT_TRUE(tagged->id);
  EXPECT_EQ(*tagged->id, 9u);
  EXPECT_EQ(tagged->fields.at("id"), "3");
  const auto terr = parse_response("@2 err nope");
  ASSERT_TRUE(terr && !terr->ok && terr->id);
  EXPECT_EQ(*terr->id, 2u);
  EXPECT_EQ(terr->error, "nope");
  EXPECT_FALSE(parse_response("@x ok"));
  EXPECT_FALSE(parse_response("@5"));
}

// ---- group commit -------------------------------------------------------------

struct DaemonStore {
  MemFileIo fs;
  std::optional<StateStore> store;
  StateMutex state_mu;

  explicit DaemonStore(std::size_t v = 2) {
    ChaChaRng rng(31);
    SecurityManager mgr(test::test_params(v, /*seed=*/31), rng);
    store.emplace(StateStore::create(fs, "store", std::move(mgr), rng));
  }
};

TEST(GroupCommit, ConcurrentMutationsAreAllDurableWhenAcked) {
  DaemonStore d;
  constexpr std::size_t kThreads = 4, kPerThread = 8;
  {
    GroupCommit commits(*d.store, d.state_mu);
    ChaChaRng rng(1);
    std::mutex rng_mu;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          commits.run([&] {
            std::lock_guard lk(rng_mu);
            d.store->add_user(rng);
          });
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(commits.committed(), kThreads * kPerThread);
    EXPECT_GE(commits.batches(), 1u);
    EXPECT_LE(commits.batches(), commits.committed());
  }
  // Every acked mutation survives a power cut.
  MemFileIo cut = d.fs;
  cut.crash();
  StateStore recovered = StateStore::open(cut, "store");
  EXPECT_EQ(recovered.manager().users().size(), kThreads * kPerThread);
}

TEST(GroupCommit, OpErrorReachesOnlyItsSubmitter) {
  DaemonStore d;
  GroupCommit commits(*d.store, d.state_mu);
  ChaChaRng rng(2);
  // A bad op (unknown user) must throw at its own run() call...
  const std::uint64_t bogus[] = {404};
  EXPECT_THROW(commits.run([&] { d.store->remove_users(bogus, rng); }),
               ContractError);
  // ...and leave the queue fully usable for the next, valid op.
  commits.run([&] { d.store->add_user(rng); });
  EXPECT_EQ(d.store->manager().users().size(), 1u);
}

TEST(GroupCommit, SyncFailureNacksTheBatchAndFailsStop) {
  // A batch whose covering fsync fails must NOT keep serving: its ops are
  // live in the in-memory manager, and a later successful flush (or the
  // destructor's set_batching(false)) would silently commit mutations the
  // clients were told had failed.
  const auto make_store = [](FileIo& io) {
    ChaChaRng rng(31);
    SecurityManager mgr(test::test_params(2, /*seed=*/31), rng);
    return StateStore::create(io, "store", std::move(mgr), rng);
  };

  // Dry run: the batch's fsync is the last mutating I/O op.
  std::uint64_t total_ops = 0;
  {
    MemFileIo fs;
    FaultyFileIo io(fs, FilePlan{});
    StateStore store = make_store(io);
    StateMutex mu;
    GroupCommit commits(store, mu);
    ChaChaRng rng(1);
    commits.run([&] { store.add_user(rng); });
    total_ops = io.fault_counters().mutating_ops;
  }
  ASSERT_GT(total_ops, 0u);

  MemFileIo fs;
  FilePlan plan;
  plan.seed = 77;
  plan.crash_at = total_ops - 1;
  FaultyFileIo io(fs, plan);
  StateStore store = make_store(io);
  StateMutex mu;
  std::atomic<int> fatal_calls{0};
  Bytes wal_after_failure;
  {
    GroupCommit commits(store, mu, [&] { fatal_calls.fetch_add(1); });
    ChaChaRng rng(1);
    // The sync failure is rethrown at the submitter: a NACK.
    EXPECT_THROW(commits.run([&] { store.add_user(rng); }), CrashPoint);
    EXPECT_TRUE(commits.fatal());
    EXPECT_EQ(fatal_calls.load(), 1);
    EXPECT_TRUE(store.poisoned());
    EXPECT_EQ(commits.committed(), 0u);
    wal_after_failure = fs.read("store/wal.0");
    // The queue refuses further work instead of batching on a dead store.
    EXPECT_THROW(commits.run([&] { store.add_user(rng); }), ContractError);
  }
  // Destruction (the daemon's shutdown path) did not flush the NACKed
  // frames behind the clients' backs.
  EXPECT_EQ(fs.read("store/wal.0"), wal_after_failure);
  EXPECT_EQ(fatal_calls.load(), 1);
}

TEST(GroupCommit, DestructorReturnsStoreToImmediateMode) {
  DaemonStore d;
  {
    GroupCommit commits(*d.store, d.state_mu);
    EXPECT_TRUE(d.store->batching());
  }
  EXPECT_FALSE(d.store->batching());
  EXPECT_EQ(d.store->unsynced_records(), 0u);
}

// ---- request handler ----------------------------------------------------------

/// RequestHandler over a ShardRouter — one shard by default (the classic
/// daemon shape), more for the sharded tests. Deterministic per-shard RNGs.
struct HandlerFixture {
  MemFileIo fs;
  std::optional<ShardRouter> router;
  std::optional<RequestHandler> handler;

  explicit HandlerFixture(std::size_t shards = 1, std::size_t v = 2) {
    ChaChaRng rng(31);
    std::vector<StateStore> stores;
    if (shards == 1) {
      SecurityManager mgr(test::test_params(v, /*seed=*/31), rng);
      stores.push_back(StateStore::create(fs, "store", std::move(mgr), rng));
    } else {
      const SystemParams sp = test::test_params(v, /*seed=*/31);
      std::vector<SecurityManager> managers;
      for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, rng);
      stores = create_shard_set(fs, "store", std::move(managers), rng);
    }
    router.emplace(std::move(stores), [](std::size_t k) {
      return std::make_unique<ChaChaRng>(100 + k);
    });
    handler.emplace(*router);
  }

  Response ok(const std::string& line) {
    const RequestHandler::Result res = handler->handle(line);
    const auto r = parse_response(res.response);
    EXPECT_TRUE(r) << res.response;
    EXPECT_TRUE(r->ok) << res.response;
    return *r;
  }
  std::string err(const std::string& line) {
    const RequestHandler::Result res = handler->handle(line);
    const auto r = parse_response(res.response);
    EXPECT_TRUE(r && !r->ok) << res.response;
    return r ? r->error : "";
  }
};

TEST(RequestHandler, StatusReportsTheStore) {
  HandlerFixture f;
  const Response r = f.ok("status");
  EXPECT_EQ(r.fields.at("shards"), "1");
  EXPECT_EQ(r.fields.at("period"), "0");
  EXPECT_EQ(r.fields.at("periods"), "0");
  EXPECT_EQ(r.fields.at("active"), "0");
  EXPECT_EQ(r.fields.at("revoked"), "0");
  EXPECT_EQ(r.fields.at("saturation"), "0/2");
  EXPECT_EQ(r.fields.at("generation"), "0");
}

TEST(RequestHandler, AddUserIssuesAWorkingKeyFile) {
  HandlerFixture f;
  const Response added = f.ok("add-user");
  EXPECT_EQ(added.fields.at("id"), "0");
  const auto key_bytes = hex_decode(added.fields.at("key"));
  ASSERT_TRUE(key_bytes);
  const KeyFileData kf = decode_key_file(*key_bytes);

  // The daemon-issued key opens daemon-encrypted content.
  const Bytes payload = {'h', 'i', ' ', 'd', 'f', 'k', 'y'};
  const Response enc = f.ok("encrypt " + hex_encode(payload));
  EXPECT_EQ(enc.fields.at("bytes"), "7");
  const auto ct_bytes = hex_decode(enc.fields.at("ct"));
  ASSERT_TRUE(ct_bytes);
  Reader r(*ct_bytes);
  const ContentMessage msg = ContentMessage::deserialize(r, kf.sp.group);
  r.expect_end();
  EXPECT_EQ(open_content(kf.sp, kf.key, msg), payload);
}

TEST(RequestHandler, RevokeCutsTheKeyOffImmediately) {
  HandlerFixture f;
  const Response added = f.ok("add-user");
  f.ok("add-user");  // a second user keeps the system non-trivial
  const KeyFileData kf =
      decode_key_file(*hex_decode(added.fields.at("key")));

  const Response rev = f.ok("revoke " + added.fields.at("id"));
  EXPECT_EQ(rev.fields.at("saturation"), "1/2");
  // No period roll was needed, so no bundles — the public-key edit alone
  // already excludes the revoked key from new broadcasts.
  EXPECT_EQ(rev.fields.at("bundles"), "");

  const Response enc = f.ok("encrypt 00ff");
  const Bytes ct = *hex_decode(enc.fields.at("ct"));
  Reader cr(ct);
  const ContentMessage msg = ContentMessage::deserialize(cr, kf.sp.group);
  EXPECT_THROW(open_content(kf.sp, kf.key, msg), Error);

  const Response st = f.ok("status");
  EXPECT_EQ(st.fields.at("active"), "1");
  EXPECT_EQ(st.fields.at("revoked"), "1");
}

TEST(RequestHandler, SaturatingRevokeRollsThePeriodAndReturnsBundles) {
  HandlerFixture f;
  const Response added = f.ok("add-user");
  f.ok("add-user");
  f.ok("add-user");
  const KeyFileData kf =
      decode_key_file(*hex_decode(added.fields.at("key")));

  // v = 2, so revoking three users forces a New-period mid-batch; its
  // signed bundle comes back comma-separated in the response.
  const Response rev = f.ok("revoke 0 1 2");
  const std::string& csv = rev.fields.at("bundles");
  ASSERT_FALSE(csv.empty());
  const std::string first = csv.substr(0, csv.find(','));
  const Bytes bundle = *hex_decode(first);
  Reader r(bundle);
  (void)SignedResetBundle::deserialize(r, kf.sp.group);
  r.expect_end();
  EXPECT_EQ(rev.fields.at("period"), "1");
}

TEST(RequestHandler, NewPeriodAdvancesAndReturnsOneBundle) {
  HandlerFixture f;
  const Response r = f.ok("new-period");
  EXPECT_EQ(r.fields.at("period"), "1");
  EXPECT_EQ(r.fields.at("saturation"), "0/2");
  const std::string& csv = r.fields.at("bundles");
  EXPECT_FALSE(csv.empty());
  EXPECT_EQ(csv.find(','), std::string::npos);  // one shard, one bundle
}

TEST(RequestHandler, MalformedRequestsGetErrNotCrashes) {
  HandlerFixture f;
  EXPECT_NE(f.err(""), "");
  EXPECT_NE(f.err("frobnicate"), "");
  EXPECT_NE(f.err("revoke"), "");
  EXPECT_NE(f.err("revoke banana"), "");
  EXPECT_NE(f.err("revoke -5"), "");
  EXPECT_NE(f.err("revoke 18446744073709551616"), "");
  EXPECT_NE(f.err("revoke 404"), "");       // unknown user: Error -> err
  EXPECT_NE(f.err("encrypt zz"), "");
  EXPECT_NE(f.err("encrypt"), "");
  EXPECT_NE(f.err("add-user extra-arg"), "");
  // The handler survived all of it.
  f.ok("status");
}

TEST(RequestHandler, ShutdownAcksAndSignals) {
  HandlerFixture f;
  const RequestHandler::Result res = f.handler->handle("shutdown");
  EXPECT_EQ(res.response, "ok");
  EXPECT_TRUE(res.shutdown);
  EXPECT_FALSE(f.handler->handle("status").shutdown);
}

TEST(RequestHandler, OverlongLineIsRejectedUpFront) {
  HandlerFixture f;
  const std::string huge(kMaxLineBytes + 1, 'a');
  const RequestHandler::Result res = f.handler->handle(huge);
  EXPECT_TRUE(res.response.starts_with("err "));
}

TEST(RequestHandler, TaggedRequestsEchoTheirTag) {
  HandlerFixture f;
  const RequestHandler::Result res = f.handler->handle("@42 status");
  EXPECT_TRUE(res.response.starts_with("@42 ok ")) << res.response;
  const auto r = parse_response(res.response);
  ASSERT_TRUE(r && r->ok && r->id);
  EXPECT_EQ(*r->id, 42u);

  // Errors echo the tag too — a pipelining client must be able to match
  // every response, including failures.
  const auto e = parse_response(f.handler->handle("@7 frobnicate").response);
  ASSERT_TRUE(e && !e->ok && e->id);
  EXPECT_EQ(*e->id, 7u);

  // A malformed tag cannot be echoed; the reply is an untagged err.
  const RequestHandler::Result bad = f.handler->handle("@nope status");
  EXPECT_TRUE(bad.response.starts_with("err ")) << bad.response;

  // A tagged shutdown still signals.
  EXPECT_TRUE(f.handler->handle("@1 shutdown").shutdown);
}

// ---- sharded handler / ShardRouter --------------------------------------------

TEST(ShardRouter, AddUserRoundRobinsAndIdsNameTheirShard) {
  HandlerFixture f(/*shards=*/3);
  const Response st = f.ok("status");
  EXPECT_EQ(st.fields.at("shards"), "3");
  EXPECT_EQ(st.fields.at("periods"), "0,0,0");
  EXPECT_EQ(st.fields.at("saturation"), "0/6");  // summed across shards

  std::set<std::string> shards_seen;
  for (int i = 0; i < 6; ++i) {
    const Response added = f.ok("add-user");
    const std::uint64_t id = *parse_u64(added.fields.at("id"));
    const std::uint64_t shard = *parse_u64(added.fields.at("shard"));
    EXPECT_EQ(id % 3, shard);  // global id = local*N + shard
    shards_seen.insert(added.fields.at("shard"));
  }
  EXPECT_EQ(shards_seen.size(), 3u);  // round-robin reached every shard
  EXPECT_EQ(f.ok("status").fields.at("active"), "6");
}

TEST(ShardRouter, KeysOpenOnlyTheirOwnShardsBroadcasts) {
  HandlerFixture f(/*shards=*/2);
  const Response a = f.ok("add-user");  // shard 0
  const Response b = f.ok("add-user");  // shard 1
  ASSERT_EQ(a.fields.at("shard"), "0");
  ASSERT_EQ(b.fields.at("shard"), "1");
  const KeyFileData ka = decode_key_file(*hex_decode(a.fields.at("key")));
  const KeyFileData kb = decode_key_file(*hex_decode(b.fields.at("key")));

  const Bytes payload = {1, 2, 3};
  const Response enc0 = f.ok("encrypt " + hex_encode(payload) + " 0");
  EXPECT_EQ(enc0.fields.at("shard"), "0");
  const Bytes ct0 = *hex_decode(enc0.fields.at("ct"));
  Reader r0(ct0);
  const ContentMessage m0 = ContentMessage::deserialize(r0, ka.sp.group);
  EXPECT_EQ(open_content(ka.sp, ka.key, m0), payload);
  // Shard 1's key is a different scheme instance entirely.
  EXPECT_THROW(open_content(kb.sp, kb.key, m0), Error);

  EXPECT_NE(f.err("encrypt 00 2"), "");  // out-of-range shard
}

TEST(ShardRouter, RevokePartitionsAcrossShards) {
  HandlerFixture f(/*shards=*/2);
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(f.ok("add-user").fields.at("id"));
  // One id per shard in a single request: both shards commit their part.
  f.ok("revoke " + ids[0] + " " + ids[1]);
  const Response st = f.ok("status");
  EXPECT_EQ(st.fields.at("active"), "2");
  EXPECT_EQ(st.fields.at("revoked"), "2");
  EXPECT_EQ(st.fields.at("saturation"), "2/4");
  // An unknown id fails its shard's sub-batch.
  EXPECT_NE(f.err("revoke 404"), "");
}

TEST(ShardRouter, NewPeriodIsACrossShardBarrier) {
  HandlerFixture f(/*shards=*/3);
  const Response r = f.ok("new-period");
  EXPECT_EQ(r.fields.at("period"), "1");
  // One bundle per shard, every shard on the new epoch.
  EXPECT_EQ(std::count(r.fields.at("bundles").begin(),
                       r.fields.at("bundles").end(), ','),
            2);
  EXPECT_EQ(f.ok("status").fields.at("periods"), "1,1,1");

  // Durable on every shard: a power cut after the ack loses nothing.
  MemFileIo cut = f.fs;
  cut.crash();
  ChaChaRng rng(9);
  ShardSetReport rep;
  const std::vector<StateStore> recovered =
      open_shard_set(cut, "store", rng, {}, &rep);
  EXPECT_EQ(rep.epoch, 1u);
  EXPECT_EQ(rep.rolled_forward, 0u);
  for (const StateStore& s : recovered) {
    EXPECT_EQ(s.manager().period(), 1u);
  }
}

TEST(ShardRouter, EqualizesEpochsDriftedBySaturatingRevokes) {
  // v=2: revoking 3 users on one shard rolls that shard's period
  // autonomously. The next cross-shard new-period must land everyone on
  // one common epoch, not leave the set staggered.
  HandlerFixture f(/*shards=*/2);
  std::vector<std::string> shard0_ids;
  for (int i = 0; i < 8; ++i) {
    const Response added = f.ok("add-user");
    if (added.fields.at("shard") == "0") {
      shard0_ids.push_back(added.fields.at("id"));
    }
  }
  ASSERT_GE(shard0_ids.size(), 3u);
  f.ok("revoke " + shard0_ids[0] + " " + shard0_ids[1] + " " +
       shard0_ids[2]);
  EXPECT_EQ(f.ok("status").fields.at("periods"), "1,0");  // drifted

  const Response np = f.ok("new-period");
  EXPECT_EQ(np.fields.at("period"), "2");  // max(1,0)+1
  EXPECT_EQ(f.ok("status").fields.at("periods"), "2,2");
  // The laggard shard emitted a catch-up bundle for each period it
  // skipped: 1 (shard 0) + 2 (shard 1) bundles in total.
  EXPECT_EQ(std::count(np.fields.at("bundles").begin(),
                       np.fields.at("bundles").end(), ','),
            2);
}

TEST(ShardRouter, ConcurrentMutationsLandOnTheRightShardsDurably) {
  HandlerFixture f(/*shards=*/3);
  constexpr std::size_t kThreads = 4, kPerThread = 6;
  std::vector<std::thread> threads;
  std::mutex ids_mu;
  std::vector<std::uint64_t> ids;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const ShardRouter::AddedUser added = f.router->add_user();
        std::lock_guard lk(ids_mu);
        ids.push_back(added.global_id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // No id was handed out twice, regardless of interleaving.
  std::set<std::uint64_t> unique_ids(ids.begin(), ids.end());
  EXPECT_EQ(unique_ids.size(), kThreads * kPerThread);

  // Every ack survives a crash of all shards at once.
  MemFileIo cut = f.fs;
  cut.crash();
  ChaChaRng rng(9);
  const std::vector<StateStore> recovered =
      open_shard_set(cut, "store", rng);
  std::size_t users = 0;
  for (const StateStore& s : recovered) users += s.manager().users().size();
  EXPECT_EQ(users, kThreads * kPerThread);
}

TEST(ShardRouter, MutationsAreNotStarvedByEncryptLoad) {
  // Concurrent encrypts hold the shard's state lock shared back to back.
  // The epoch barrier and the committer need it exclusively, and must
  // still get in within a bounded wait.
  HandlerFixture f(/*shards=*/1, /*v=*/16);
  const Bytes payload(256, 0x5a);
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < 4; ++t) {
    load.emplace_back([&] {
      while (!stop.load()) (void)f.router->encrypt(payload, 0);
    });
  }
  // Each mutation runs through std::async so a starved one fails the
  // test instead of hanging it: once the load stops, it completes.
  constexpr auto kBudget = std::chrono::seconds(2);
  auto barrier = std::async(std::launch::async,
                            [&] { return f.router->new_period_all().period; });
  const bool barrier_in_time =
      barrier.wait_for(kBudget) == std::future_status::ready;
  auto add = std::async(std::launch::async,
                        [&] { return f.router->add_user().global_id; });
  const bool add_in_time = add.wait_for(kBudget) == std::future_status::ready;
  stop = true;
  for (std::thread& t : load) t.join();
  EXPECT_TRUE(barrier_in_time) << "new_period_all starved by encrypt load";
  EXPECT_TRUE(add_in_time) << "add_user starved by encrypt load";
  EXPECT_EQ(barrier.get(), 1u);
  (void)add.get();
  EXPECT_EQ(f.router->status().active, 1u);
}

TEST(ShardRouter, ConcurrentEncryptsOpenAndNeverShareRandomness) {
  // Encrypts on one shard run their exponentiations concurrently, each on
  // its own stream seeded from the shard's Rng. Every ciphertext must
  // open to its own payload, and no two may reuse an encryption exponent
  // r (a shared u = g^r would mean a shared stream).
  HandlerFixture f;
  const KeyFileData key = decode_key_file(f.router->add_user().key_file);
  constexpr std::size_t kThreads = 4, kPerThread = 32;
  std::vector<std::vector<Bytes>> cts(kThreads);
  const auto payload_of = [](std::size_t t, std::size_t i) {
    return Bytes{static_cast<byte>(t), static_cast<byte>(i), 0xc7};
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        cts[t].push_back(f.router->encrypt(payload_of(t, i), 0).ct);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<std::string> us;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(cts[t].size(), kPerThread);
    for (std::size_t i = 0; i < kPerThread; ++i) {
      Reader r(cts[t][i]);
      const ContentMessage m = ContentMessage::deserialize(r, key.sp.group);
      EXPECT_EQ(open_content(key.sp, key.key, m), payload_of(t, i));
      us.insert(m.kem.u.value().to_hex());
    }
  }
  EXPECT_EQ(us.size(), kThreads * kPerThread);
}

TEST(RequestHandler, FeedPublishesTheResetBeforeCiphertextsOfItsPeriod) {
  // An encrypt can seal under the new key after the epoch barrier has let
  // go of the shard but before the barrier's reset is published. The hook
  // parks that reset until such an encrypt has returned; subscribers must
  // still get the reset first, or they cannot open the ciphertext.
  HandlerFixture f;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> stream;  // guarded by mu
  bool reset_parked = false;        // guarded by mu
  bool encrypt_returned = false;    // guarded by mu
  RequestHandler h(
      *f.router,
      RequestHandler::Hooks{
          .pre_demote = {},
          .post_demote = {},
          .post_promote = {},
          .watchdog_state = {},
          .publish = [&](std::string line, std::uint64_t) {
            std::unique_lock lk(mu);
            if (line.starts_with("bcast new-period ")) {
              reset_parked = true;
              cv.notify_all();
              cv.wait_for(lk, std::chrono::seconds(10),
                          [&] { return encrypt_returned; });
            }
            stream.push_back(std::move(line));
          }});
  std::thread roll([&] { h.handle("new-period"); });
  {
    std::unique_lock lk(mu);
    EXPECT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return reset_parked; }));
  }
  const auto r = parse_response(h.handle("encrypt 0102").response);
  {
    std::lock_guard lk(mu);
    encrypt_returned = true;
  }
  cv.notify_all();
  roll.join();

  ASSERT_TRUE(r && r->ok);
  const Bytes ct = hex_decode(r->fields.at("ct")).value();
  Reader rd(ct);
  const ContentMessage m = ContentMessage::deserialize(
      rd, f.router->store(0).manager().params().group);
  EXPECT_EQ(m.kem.period, 1u);  // sealed under the new key: the race is on
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_TRUE(stream[0].starts_with("bcast new-period period=1 "))
      << stream[0].substr(0, 40);
  EXPECT_TRUE(stream[1].starts_with("bcast encrypt shard=0 "))
      << stream[1].substr(0, 40);
}

TEST(ShardRouter, EncryptTracksKeyChanges) {
  // Each encrypt seals under the key the shard holds now: right after a
  // revoke or a new period through an Encryptor that carried the
  // still-valid tables over, and later through the complete one the
  // builder installs.
  constexpr std::size_t kV = 4;
  HandlerFixture f(/*shards=*/1, kV);
  ShardRouter& router = *f.router;
  const ShardRouter::AddedUser active = router.add_user();
  const ShardRouter::AddedUser revoked = router.add_user();
  const KeyFileData ka = decode_key_file(active.key_file);
  const KeyFileData kr = decode_key_file(revoked.key_file);
  const Group& group = ka.sp.group;
  std::uint8_t n = 0;
  // Seals a fresh payload; it must open under `open_key` and, when given,
  // fail under `shut_key`.
  const auto check = [&](const KeyFileData& open_key,
                         const KeyFileData* shut_key) {
    const Bytes payload = {n++, 0x3c};
    const Bytes ct = router.encrypt(payload, 0).ct;
    Reader r(ct);
    const ContentMessage m = ContentMessage::deserialize(r, group);
    EXPECT_EQ(open_content(open_key.sp, open_key.key, m), payload);
    if (shut_key) {
      EXPECT_THROW(open_content(shut_key->sp, shut_key->key, m), Error);
    }
  };
  // Encrypts until the builder has installed the complete Encryptor for
  // the shard's current key.
  const auto until_complete = [&](const KeyFileData& open_key,
                                  const KeyFileData* shut_key) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      check(open_key, shut_key);
      const std::shared_ptr<const Encryptor> enc = router.encryptor(0);
      if (enc->complete() &&
          enc->public_key() == router.store(0).manager().public_key()) {
        return;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "the table builder never installed a complete Encryptor";
    }
  };

  check(ka, nullptr);
  EXPECT_EQ(router.encryptor(0)->tables() % (kV + 3), 0u);  // none or all
  until_complete(ka, nullptr);
  check(kr, nullptr);  // not yet revoked

  const std::uint64_t revoked_id = revoked.global_id;
  router.revoke(std::span(&revoked_id, 1));
  check(ka, &kr);  // at once: every table but the revoked slot's carries
  EXPECT_GE(router.encryptor(0)->tables(), kV + 2);
  until_complete(ka, &kr);

  router.new_period_all();
  const KeyFileData kn = decode_key_file(router.add_user().key_file);
  check(kn, &kr);  // at once: only the g and g' tables carry over
  EXPECT_GE(router.encryptor(0)->tables(), 2u);
  until_complete(kn, &kr);
}

TEST(ShardRouter, DestroyWhileTablesBuild) {
  // The first encrypt queues a 19-table build at 512 bits; destroying the
  // router straight after must join the builder mid-build, cleanly. The
  // builder checks for shutdown between table rows and drops the
  // unfinished build, so the join waits for at most one row, not the
  // key's tables: a one-shot `dfky_cli encrypt` exits without the build.
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::duration> destroys;
  Clock::duration full{};
  for (int round = 0; round < 3; ++round) {
    MemFileIo fs;
    ChaChaRng rng(41 + round);
    SecurityManager mgr(
        SystemParams::create(Group(GroupParams::named(ParamId::kSec512)),
                             /*v=*/16, rng),
        rng);
    std::vector<StateStore> stores;
    stores.push_back(StateStore::create(fs, "store", std::move(mgr), rng));
    std::optional<ShardRouter> router;
    router.emplace(std::move(stores), [](std::size_t k) {
      return std::make_unique<ChaChaRng>(200 + k);
    });
    EXPECT_FALSE(router->encrypt(Bytes{1, 2, 3}, 0).ct.empty());
    EXPECT_FALSE(router->encryptor(0)->complete());
    const SecurityManager& m = router->store(0).manager();
    const Encryptor bare(m.params(), m.public_key());
    const Clock::time_point t0 = Clock::now();
    router.reset();
    destroys.push_back(Clock::now() - t0);
    if (round == 0) {  // the whole build, timed alone
      const Clock::time_point t1 = Clock::now();
      EXPECT_TRUE(bare.with_tables().complete());
      full = Clock::now() - t1;
    }
  }
  std::sort(destroys.begin(), destroys.end());
  EXPECT_LT(destroys[1], full / 2);
}

// ---- replication: follower routers, repl verbs, promotion ---------------------

/// A primary router plus a follower router over a cloned shard set, both
/// socket-free behind RequestHandlers — the unit-level shape of a
/// two-daemon cluster (the sockets are exercised by daemon_e2e.sh).
struct ReplFixture {
  MemFileIo pfs, ffs;
  std::optional<ShardRouter> prim, foll;
  std::optional<RequestHandler> ph, fh;

  explicit ReplFixture(std::size_t shards = 2, std::size_t v = 2) {
    ChaChaRng rng(31);
    const SystemParams sp = test::test_params(v, /*seed=*/31);
    std::vector<SecurityManager> managers;
    for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, rng);
    std::vector<StateStore> stores =
        create_shard_set(pfs, "store", std::move(managers), rng);
    clone_store_files(pfs, ffs, "store");  // the bootstrap clone
    prim.emplace(std::move(stores), [](std::size_t k) {
      return std::make_unique<ChaChaRng>(100 + k);
    });
    // A follower opens its shards individually — no epoch equalization.
    std::vector<StateStore> fstores;
    for (std::size_t i = 0; i < shards; ++i) {
      fstores.push_back(
          StateStore::open(ffs, "store/" + shard_dir_name(i)));
    }
    foll.emplace(
        std::move(fstores),
        [](std::size_t k) { return std::make_unique<ChaChaRng>(200 + k); },
        std::function<void()>{}, /*follower=*/true);
    ph.emplace(*prim);
    fh.emplace(*foll);
  }

  Response ok(RequestHandler& h, const std::string& line) {
    const RequestHandler::Result res = h.handle(line);
    const auto r = parse_response(res.response);
    EXPECT_TRUE(r) << res.response;
    EXPECT_TRUE(r && r->ok) << res.response;
    return r ? *r : Response{};
  }
  std::string err(RequestHandler& h, const std::string& line) {
    const RequestHandler::Result res = h.handle(line);
    const auto r = parse_response(res.response);
    EXPECT_TRUE(r && !r->ok) << res.response;
    return r ? r->error : "";
  }

  /// One catch-up pass, primary -> follower, through the wire verbs —
  /// exactly the requests ReplicationSender issues.
  void ship_all() {
    for (std::size_t k = 0; k < prim->shards(); ++k) {
      ShardRouter::ReplPosition pos = foll->repl_positions()[k];
      StateStore& st = prim->store(k);
      if (pos.generation != st.generation()) {
        ok(*fh, "repl-snap " + std::to_string(k) + " " +
                    std::to_string(st.generation()) + " 0 " +
                    hex_encode(st.read_snapshot_frame()));
        pos = ShardRouter::ReplPosition{st.generation(), 0, {}};
      }
      const WalShipment ship = st.read_frames_from(pos.records);
      if (ship.records == 0) continue;
      const Response r =
          ok(*fh, "repl-append " + std::to_string(k) + " " +
                      std::to_string(ship.generation) + " 0 " +
                      std::to_string(ship.start_record) + " " +
                      hex_encode(ship.frames));
      EXPECT_EQ(r.fields.at("seq"), std::to_string(st.wal_records()));
    }
  }
};

TEST(Replication, FollowerRejectsMutationsAndReportsItsRole) {
  ReplFixture f;
  EXPECT_EQ(f.ok(*f.ph, "status").fields.at("role"), "primary");
  EXPECT_EQ(f.ok(*f.fh, "status").fields.at("role"), "follower");

  EXPECT_NE(f.err(*f.fh, "add-user"), "");
  EXPECT_NE(f.err(*f.fh, "revoke 0"), "");
  EXPECT_NE(f.err(*f.fh, "new-period"), "");
  // Reads stay available on a follower.
  f.ok(*f.fh, "encrypt 00ff");
  f.ok(*f.fh, "repl-status");

  // And a primary refuses the replica-ingest verbs: its committers own
  // the WAL, a concurrent stream would race them.
  EXPECT_NE(f.err(*f.ph, "repl-append 0 0 0 0 ab"), "");
  EXPECT_NE(f.err(*f.ph, "repl-snap 0 1 0 ab"), "");
}

TEST(Replication, WireVerbsConvergeTheFollower) {
  ReplFixture f;
  for (int i = 0; i < 5; ++i) f.ok(*f.ph, "add-user");
  f.ok(*f.ph, "new-period");
  f.ship_all();

  const Response ps = f.ok(*f.ph, "status");
  const Response fs = f.ok(*f.fh, "status");
  for (const char* key : {"active", "revoked", "periods", "wal_records"}) {
    EXPECT_EQ(fs.fields.at(key), ps.fields.at(key)) << key;
  }
  for (std::size_t k = 0; k < f.prim->shards(); ++k) {
    EXPECT_EQ(f.foll->store(k).chain_head_hex(),
              f.prim->store(k).chain_head_hex())
        << "shard " << k;
  }

  // repl-status mirrors the per-shard positions.
  const Response rs = f.ok(*f.fh, "repl-status");
  EXPECT_EQ(rs.fields.at("role"), "follower");
  for (std::size_t k = 0; k < f.prim->shards(); ++k) {
    const StateStore& st = f.prim->store(k);
    // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    EXPECT_EQ(rs.fields.at("s" + std::to_string(k)),
              std::to_string(st.generation()) + ":" +
                  std::to_string(st.wal_records()) + ":" +
                  st.chain_head_hex());
#pragma GCC diagnostic pop
  }

  // Duplicate re-delivery of the full history is acked, not re-applied.
  const std::string before = f.ok(*f.fh, "status").fields.at("wal_records");
  for (std::size_t k = 0; k < f.prim->shards(); ++k) {
    const WalShipment ship = f.prim->store(k).read_frames_from(0);
    if (ship.records == 0) continue;
    f.ok(*f.fh, "repl-append " + std::to_string(k) + " " +
                    std::to_string(ship.generation) + " 0 0 " +
                    hex_encode(ship.frames));
  }
  EXPECT_EQ(f.ok(*f.fh, "status").fields.at("wal_records"), before);
}

TEST(Replication, PromoteServesHistoryAndAcceptsMutations) {
  ReplFixture f;
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(f.ok(*f.ph, "add-user").fields.at("key"));
  }
  f.ship_all();

  const Response pr = f.ok(*f.fh, "promote");
  EXPECT_EQ(pr.fields.at("role"), "primary");
  EXPECT_EQ(f.ok(*f.fh, "status").fields.at("role"), "primary");
  // Idempotent: a retried promote is an ok, not a crash.
  f.ok(*f.fh, "promote");

  // The promoted follower serves the full acked history...
  const Response st = f.ok(*f.fh, "status");
  EXPECT_EQ(st.fields.at("active"), "4");
  // ...a key issued by the old primary opens the new primary's broadcasts...
  const KeyFileData kf = decode_key_file(*hex_decode(keys[0]));
  const Bytes payload = {9, 9, 9};
  const Response enc =
      f.ok(*f.fh, "encrypt " + hex_encode(payload) + " 0");
  const Bytes ct = *hex_decode(enc.fields.at("ct"));
  Reader r(ct);
  const ContentMessage msg = ContentMessage::deserialize(r, kf.sp.group);
  r.expect_end();
  EXPECT_EQ(open_content(kf.sp, kf.key, msg), payload);
  // ...and mutations flow again, through freshly started committers.
  f.ok(*f.fh, "add-user");
  f.ok(*f.fh, "new-period");
  EXPECT_EQ(f.ok(*f.fh, "status").fields.at("active"), "5");

  // Acked history really is durable on the promoted node.
  MemFileIo cut = f.ffs;
  cut.crash();
  ChaChaRng rng(9);
  const std::vector<StateStore> recovered =
      open_shard_set(cut, "store", rng);
  std::size_t users = 0;
  for (const StateStore& s : recovered) users += s.manager().users().size();
  EXPECT_EQ(users, 5u);
}

TEST(Replication, PromoteAndDemoteHooksFireOnlyOnRoleChange) {
  // The daemon wires post_promote -> start_replication and post_demote ->
  // start_watchdog: a manually promoted node must replicate before it
  // acks, and a demoted one must keep voting in elections. Idempotent
  // retries of either verb must NOT re-fire the hooks.
  ReplFixture f;
  int promoted = 0, demoted = 0, pre = 0;
  RequestHandler hooked(
      *f.foll, RequestHandler::Hooks{
                   .pre_demote = [&] { ++pre; },
                   .post_demote = [&] { ++demoted; },
                   .post_promote = [&] { ++promoted; },
                   .watchdog_state = {},
                   .publish = {}});
  EXPECT_EQ(f.ok(hooked, "promote").fields.at("already"), "0");
  EXPECT_EQ(promoted, 1);
  EXPECT_EQ(f.ok(hooked, "promote").fields.at("already"), "1");
  EXPECT_EQ(promoted, 1);  // idempotent retry: replication already runs

  EXPECT_EQ(f.ok(hooked, "demote").fields.at("already"), "0");
  EXPECT_EQ(pre, 1);
  EXPECT_EQ(demoted, 1);
  EXPECT_EQ(f.ok(hooked, "demote").fields.at("already"), "1");
  EXPECT_EQ(pre, 2);       // pre_demote always runs (stop is idempotent)
  EXPECT_EQ(demoted, 1);   // but the watchdog is not re-armed twice
}

TEST(Replication, PromoteEqualizesMixedEpochs) {
  // A primary killed mid-barrier can leave the follower's shards at mixed
  // periods (shard 0's frames arrived, shard 1's did not). promote() must
  // land every shard on one epoch before serving.
  ReplFixture f;
  f.ok(*f.ph, "new-period");
  // Ship only shard 0.
  const WalShipment ship = f.prim->store(0).read_frames_from(0);
  ASSERT_GT(ship.records, 0u);
  f.ok(*f.fh, "repl-append 0 " + std::to_string(ship.generation) + " 0 0 " +
                  hex_encode(ship.frames));
  EXPECT_EQ(f.ok(*f.fh, "status").fields.at("periods"), "1,0");

  f.ok(*f.fh, "promote");
  EXPECT_EQ(f.ok(*f.fh, "status").fields.at("periods"), "1,1");
  f.ok(*f.fh, "add-user");  // and it serves
}

}  // namespace
}  // namespace dfky::daemon
