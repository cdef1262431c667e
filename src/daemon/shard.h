// ShardRouter — dfkyd over N StateStore shards (DESIGN.md Sect. 11).
//
// Each shard is an independent scheme instance with its own store
// directory, exclusive LOCK, reader/writer state lock, RNG and
// group-commit committer thread; every daemon metric a shard emits
// carries a {"shard", "<k>"} label. The router owns the fan-out:
//
//   * user ids — global id = local id * N + shard, so `id % N` names the
//     shard and ids from different shards never collide. add-user places
//     round-robin; revoke partitions its ids by shard and commits per
//     shard (atomic within a shard, not across shards).
//   * new-period — a TWO-PHASE cross-shard epoch barrier: with every
//     shard's state lock held exclusively (committers sync before
//     releasing theirs, so nothing is staged), phase 1 stages each
//     shard's reset record in memory (batching mode: no I/O), phase 2
//     issues each shard's WAL append+fsync. The caller is acked only
//     after every shard's sync. A crash between the phases leaves shards
//     at mixed periods; a primary's constructor (and promote) rolls the
//     laggards forward, which is safe exactly because the barrier was
//     never acked.
//   * fail-stop — any shard's sync failure (in a batch or in the
//     barrier) poisons that shard's store; the router reports fatal()
//     and invokes on_fatal once so the daemon can shut down and restart
//     into recovery.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/scheme.h"
#include "daemon/feed.h"
#include "daemon/group_commit.h"
#include "daemon/state_mutex.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/store.h"

namespace dfky::daemon {

class ReplicationSender;

/// A mutation (or replication shipment) arrived carrying a failover term
/// older than the one this node has adopted — the sender is a fenced
/// ex-primary (or this node is). Distinct from ContractError so the
/// protocol layer can emit the `stale-term` NACK a zombie's sender parses,
/// and so a fenced write is never confused with an ordinary refusal
/// (DESIGN.md Sect. 14).
class StaleTermError : public Error {
 public:
  explicit StaleTermError(const std::string& what) : Error(what) {}
};

class ShardRouter {
 public:
  /// One fresh Rng per shard, so committer threads never serialize on a
  /// shared generator (the daemon passes SystemRng, tests a seeded one).
  /// Committers draw from it directly; encrypt draws only a 32-byte seed
  /// for its own per-request ChaCha20 stream.
  using RngFactory = std::function<std::unique_ptr<Rng>(std::size_t shard)>;

  /// Takes ownership of the opened shard stores (from open_shard_set).
  /// `on_fatal` is invoked at most once, on the first sync failure
  /// anywhere in the set. A primary first rolls lagging shards forward to
  /// the set's highest period (rolled_at_open() counts the rolls).
  ///
  /// With `follower = true` the router comes up as a read-only replica:
  /// no committer threads run (the stores stay in fsync-per-mutation mode,
  /// which replica ingest requires), every mutation verb throws, and state
  /// advances only through replica_append / replica_snapshot — until
  /// promote() turns the router into an ordinary primary.
  ShardRouter(std::vector<StateStore> stores, const RngFactory& make_rng,
              std::function<void()> on_fatal = {}, bool follower = false);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t shards() const { return shards_.size(); }
  /// Laggard new-periods the constructor issued to equalize the epoch (0 on
  /// a follower, and on a set that was already level).
  std::size_t rolled_at_open() const { return rolled_at_open_; }
  std::size_t shard_of(std::uint64_t global_id) const {
    return static_cast<std::size_t>(global_id % shards_.size());
  }
  std::uint64_t local_of(std::uint64_t global_id) const {
    return global_id / shards_.size();
  }
  std::uint64_t global_of(std::uint64_t local_id, std::size_t shard) const {
    return local_id * shards_.size() + shard;
  }

  // -- mutations (answered once durable, by the shard's committer) ------------

  /// A mutation's answer: called once with the result, or with the error
  /// that NACKed it (the result is then empty). It runs on the committer
  /// thread that acked the mutation, after its fsync and the replication
  /// gate, and must not throw or block. A mutation refused before it is
  /// queued (a follower, a fenced node, a stopped committer) throws from
  /// the call instead and never calls it.
  template <class T>
  using Then = std::function<void(T result, std::exception_ptr error)>;

  struct AddedUser {
    std::uint64_t global_id = 0;
    std::size_t shard = 0;
    Bytes key_file;  // ready-to-write key file (group + vk + user key)
  };
  /// Places the user round-robin and queues it on that shard's committer.
  void add_user(Then<AddedUser> done);

  struct RevokeResult {
    std::uint64_t period = 0;  // max period across the whole set afterwards
    std::size_t saturation_level = 0, saturation_limit = 0;  // summed, after
    std::vector<Bytes> bundles;  // serialized SignedResetBundles, all shards
    /// (shard, new period) of every shard this revoke rolled.
    std::vector<std::pair<std::size_t, std::uint64_t>> rolled;
  };
  /// Partitions `global_ids` by shard and revokes per shard, in shard
  /// order: each shard's sub-batch is queued by the completion of the one
  /// before, and `done` runs from the last. Ids are validated against
  /// their shard by the manager; an unknown id fails that shard's
  /// sub-batch and ends the chain (earlier shards' revocations stand — the
  /// operation is atomic per shard, not across shards).
  void revoke(std::span<const std::uint64_t> global_ids,
              Then<RevokeResult> done);

  struct NewPeriodResult {
    std::uint64_t period = 0;    // the new common epoch
    std::size_t saturation_level = 0, saturation_limit = 0;  // summed, after
    std::vector<Bytes> bundles;  // one serialized reset bundle per shard
  };
  /// The two-phase cross-shard epoch barrier. Serialized against itself;
  /// throws after a fail-stop.
  NewPeriodResult new_period_all();

  // -- reads --------------------------------------------------------------------

  struct Status {
    std::size_t shards = 0;
    std::uint64_t period = 0;  // max across shards
    std::vector<std::uint64_t> periods;  // per shard
    std::size_t active = 0, revoked = 0;             // summed
    std::size_t saturation_level = 0, saturation_limit = 0;  // summed
    std::uint64_t generation = 0;   // summed
    std::size_t wal_records = 0;    // summed
    std::uint64_t commit_batches = 0, committed = 0;  // summed
  };
  Status status() const;
  /// Each shard's period as its last mutation left it, read without any
  /// state lock (a roll in progress shows the period before it).
  std::vector<std::uint64_t> periods() const;

  /// The answer to `subscribe [from]` (DESIGN.md Sect. 7.3, 16.1), under
  /// every shard's shared state lock. Each shard whose period is past
  /// `from` contributes the bundles for from+1 .. its period out of its
  /// reset archive, or, when that archive has evicted from+1, a verdict
  /// signed on demand with its own key (under its rng_mu). A fresh
  /// subscribe (no `from`) only reads the period and signs nothing.
  FeedReplay catch_up(std::optional<std::uint64_t> from);

  /// Raw material for the `health` verb (DESIGN.md Sect. 13.4): role and
  /// fail-stop state, per-shard poisoned/epoch/queue-depth, and — with a
  /// replication sender attached — per-follower liveness and lag (primary
  /// records minus acked records, summed across shards; a follower on a
  /// stale generation counts the primary's whole shard log as lag). The
  /// ok/degraded/fail verdict is the protocol layer's to compute.
  struct HealthReport {
    bool follower = false;
    bool fatal = false;
    bool fenced = false;
    std::uint64_t term = 0;
    std::uint64_t period = 0;                 // max across shards
    std::vector<std::uint64_t> periods;       // per shard
    std::vector<bool> poisoned;               // per shard
    std::vector<std::size_t> queue_depths;    // per shard (0 on a follower)
    struct Follower {
      std::string name;
      bool live = false;
      std::uint64_t lag_records = 0;
    };
    std::vector<Follower> followers;  // empty when no sender is attached
  };
  HealthReport health() const;

  /// Seals `payload` under shard `shard`'s public key (keys issued by a
  /// shard only open that shard's broadcasts), through the shard's cached
  /// Encryptor. When the key has moved since the cached one, the seal
  /// uses an Encryptor that keeps the still-valid tables and builds none,
  /// and the shard is queued for the table builder (DESIGN.md Sect. 11.1).
  struct Sealed {
    Bytes ct;                 // serialized ContentMessage
    std::uint64_t period = 0;  // the period of the key that sealed it
  };
  Sealed encrypt(BytesView payload, std::size_t shard);

  /// True after any shard fail-stopped (batch sync or barrier failure).
  bool fatal() const { return fatal_.load(); }

  /// Mutations submitted across every shard's committer and not yet
  /// (N)ACKed — the reactor's admission-control signal (DESIGN.md
  /// Sect. 15). Lock-free reads of each queue's depth counter; 0 on a
  /// follower (no committers run).
  std::size_t queue_depth_total() const;

  // -- replication (DESIGN.md Sect. 12) ------------------------------------------

  /// True while this router is a read-only replica.
  bool follower() const { return follower_.load(); }

  /// Follower ingest of a primary's WAL shipment for one shard, under the
  /// shard's exclusive state lock. `term` is the sender's failover term:
  /// lower than ours NACKs with StaleTermError (a fenced zombie never
  /// feeds us), higher is adopted and persisted. Returns the shard's
  /// record count after ingest — the sequence number acked back to the
  /// primary. Throws ContractError on a primary (the stream would race
  /// the committers). A successful ingest clears the fenced flag: the
  /// node is demonstrably back on the legitimate primary's stream.
  std::uint64_t replica_append(std::size_t shard, std::uint64_t gen,
                               std::uint64_t start_record, BytesView frames,
                               std::uint64_t term);
  /// Follower ingest of a shipped snapshot rotation (idempotent). Same
  /// term handling as replica_append.
  void replica_snapshot(std::size_t shard, std::uint64_t gen, BytesView frame,
                        std::uint64_t term);
  /// Follower-side fork repair: drops shard `shard`'s WAL suffix past
  /// `records` once the retained prefix's chain tag matches
  /// `expected_tag_hex` (see StateStore::replica_truncate). Same term
  /// handling as replica_append.
  std::uint64_t replica_truncate(std::size_t shard, std::uint64_t gen,
                                 std::uint64_t records,
                                 const std::string& expected_tag_hex,
                                 std::uint64_t term);

  struct ReplPosition {
    std::uint64_t generation = 0;
    std::uint64_t records = 0;
    std::string chain_head;  // hex chain tag — divergence detection
  };
  /// Per-shard durable positions (shared state lock), for repl-status.
  std::vector<ReplPosition> repl_positions() const;

  // -- failover terms + fencing (DESIGN.md Sect. 14) ----------------------------

  /// The highest failover term this node has adopted (max across shard
  /// TERM files at open; persisted to every shard on adoption).
  std::uint64_t term() const { return term_.load(); }
  /// Durably adopts `t` on every shard (no-op unless it exceeds term()).
  void adopt_term(std::uint64_t t);
  /// Fences this node: adopts `observed_term` and refuses every further
  /// mutation with StaleTermError until it re-joins a legitimate
  /// primary's stream (replica_append under the current term clears it).
  void fence(std::uint64_t observed_term);
  bool fenced() const { return fenced_.load(); }

  /// `repl-hb <term>` ingest. On a follower: rejects a stale sender with
  /// StaleTermError, adopts a newer term, stamps primary contact. On a
  /// primary: a newer term fences this node (it is a zombie and a real
  /// primary is pinging it); the same term is a split-brain ContractError.
  void note_primary_heartbeat(std::uint64_t term);
  /// Milliseconds since the last primary contact (repl-append/snap/
  /// truncate/hb ingest), or -1 when none was ever seen. The follower
  /// watchdog's silence clock, and repl-status's `hb_age_ms` field.
  std::int64_t primary_contact_age_ms() const;
  /// Restarts the silence clock without a real contact — the watchdog
  /// stamps this after standing down to a primary it can reach but that
  /// cannot reach us, so it re-campaigns a full timeout later at the
  /// earliest.
  void stamp_primary_contact();

  struct PromoteResult {
    bool already = false;      // node was already in the requested role
    std::uint64_t term = 0;    // term in effect after the call
    std::uint64_t period = 0;  // max epoch after the call
    std::size_t rolled = 0;    // laggard new-periods issued (promote only)
  };
  /// Turns a follower into a primary: equalizes shard epochs by rolling
  /// laggards forward (the same laggard-recovery new-periods a primary's
  /// constructor issues — a kill during the old primary's phase-2 sync loop
  /// can leave a follower's shards at mixed periods), then starts the committer
  /// threads. `new_term`, when set, is durably adopted before committers
  /// start (the watchdog promotes under max(seen)+1). Promoting a primary
  /// is an `already = true` no-op — distinct, not an error. Serialized
  /// against the epoch barrier.
  PromoteResult promote(std::optional<std::uint64_t> new_term = std::nullopt);
  /// The inverse: joins the committers and returns the node to read-only
  /// follower mode (replica ingest requires fsync-per-mutation stores).
  /// Demoting a follower is an `already = true` no-op. The caller must
  /// detach/stop any replication sender itself.
  PromoteResult demote();

  /// Attaches (or detaches, with nullptr) the primary's replication
  /// sender. While attached, committers and the epoch barrier block acks
  /// on live-follower replication. Shared ownership: a committer that
  /// loaded the pointer into its post_sync gate holds the sender alive
  /// through sync_shard, so the owner may detach + stop + drop its own
  /// reference while a borrower is still inside the gate.
  void attach_replication(std::shared_ptr<ReplicationSender> repl) {
    std::lock_guard lk(repl_ptr_mu_);
    repl_ = std::move(repl);
  }

  /// Borrows the attached sender (null when detached). The returned copy
  /// keeps the sender alive for the duration of the borrow even if the
  /// owner detaches concurrently.
  std::shared_ptr<ReplicationSender> replication() const {
    std::lock_guard lk(repl_ptr_mu_);
    return repl_;
  }

  // -- shutdown helpers (the daemon's teardown sequence) ------------------------

  /// Joins every shard's committer thread and returns the stores to
  /// fsync-per-mutation mode (poisoned shards skip their flush).
  void stop_commits();
  /// Final snapshot on every shard, under its exclusive state lock.
  /// Throws on the first failing shard.
  void snapshot_all();

  // -- direct shard access (tests, bench) ---------------------------------------
  StateStore& store(std::size_t shard) { return shards_[shard]->store; }
  StateMutex& state_mu(std::size_t shard) {
    return shards_[shard]->state_mu;
  }
  /// Trace id of the most recent traced mutation routed to `shard` (0 when
  /// none) — stamped on repl-append shipments so the follower's apply span
  /// joins the primary's timeline (DESIGN.md Sect. 13).
  std::uint64_t last_trace_id(std::size_t shard) const {
    return shards_[shard]->last_trace_id.load(std::memory_order_relaxed);
  }
  /// The shard's cached Encryptor (null before its first encrypt).
  std::shared_ptr<const Encryptor> encryptor(std::size_t shard) const {
    return shards_[shard]->cached_encryptor();
  }

 private:
  /// Non-movable: GroupCommit and the committer thread hold references
  /// into the shard, so its address must be stable for its lifetime.
  struct Shard {
    explicit Shard(StateStore s) : store(std::move(s)) {}
    StateStore store;
    StateMutex state_mu;
    std::unique_ptr<Rng> rng;
    /// Guards `rng`: the committer's and the barrier's draws, and each
    /// encrypt's 32-byte seed draw (never its exponentiations).
    std::mutex rng_mu;
    /// Atomic shared_ptr so demote() can stop and drop a live queue while
    /// a straggling mutation still holds a reference (its run() then fails
    /// with "shutting down" instead of touching freed memory). Null on a
    /// follower.
    std::atomic<std::shared_ptr<GroupCommit>> commits;
    std::atomic<std::uint64_t> last_trace_id{0};  // repl trace propagation
    /// The manager's period and saturation as the last mutation left them,
    /// stored by note_state() under the exclusive state lock. Mutation
    /// answers and the feed gate read these, so neither waits on another
    /// shard's state lock.
    std::atomic<std::uint64_t> period{0};
    std::atomic<std::size_t> saturation_level{0}, saturation_limit{0};
    obs::Counter* add_users = nullptr;  // dfkyd_shard_mutations_total
    obs::Counter* revokes = nullptr;    // of this shard, by verb

    void note_state() {
      const SecurityManager& mgr = store.manager();
      period.store(mgr.period(), std::memory_order_relaxed);
      saturation_level.store(mgr.saturation_level(),
                             std::memory_order_relaxed);
      saturation_limit.store(mgr.saturation_limit(),
                             std::memory_order_relaxed);
    }
    /// The Encryptor for the public key the last encrypt saw. Encrypt
    /// swaps in one for a new key (tables carried over, none built); the
    /// builder swaps in the complete one only over the Encryptor it
    /// started from. Guarded by a plain mutex, like repl_: every access
    /// is a pointer copy or swap.
    std::shared_ptr<const Encryptor> encryptor;
    mutable std::mutex encryptor_mu;

    std::shared_ptr<const Encryptor> cached_encryptor() const {
      std::lock_guard lk(encryptor_mu);
      return encryptor;
    }
    /// Installs `next` if the cache still holds `from`.
    bool swap_encryptor(const std::shared_ptr<const Encryptor>& from,
                        std::shared_ptr<const Encryptor> next) {
      {
        std::lock_guard lk(encryptor_mu);
        if (encryptor != from) return false;
        encryptor.swap(next);
      }
      return true;  // `next` now holds the old one: freed outside the lock
    }
  };

  /// One revoke's way through its shards (see revoke()).
  struct RevokeChain {
    std::vector<std::vector<std::uint64_t>> by_shard;  // local ids
    std::size_t next = 0;  // the first shard not yet queued
    RevokeResult out;
    obs::TraceContext* trace = nullptr;
    Then<RevokeResult> done;
  };
  /// Queues the chain's next non-empty shard, or answers when none is
  /// left. Throws when that shard's committer refuses the submit.
  void revoke_next(const std::shared_ptr<RevokeChain>& chain);

  void fail_stop();  // sets fatal_, invokes on_fatal_ once
  void start_committers();
  /// Laggard roll-forward, the one place the epoch is equalized: every
  /// shard behind the set's highest period rolls forward to it, each roll
  /// an ordinary durable new-period whose bundle lands in that shard's
  /// archive for catch-up. Shards diverge only through a barrier that was
  /// never acked (a crash between its phases) or a saturating revoke that
  /// rolled one shard alone, so completing the roll is safe. Runs before
  /// the committers start (stores unbatched). Returns the rolls issued.
  std::size_t roll_laggards_forward();
  void ensure_primary(const char* verb) const;
  void note_term(Shard& sh, std::uint64_t term, const char* verb);
  void stamp_trace(Shard& sh, const obs::TraceContext* trace);
  /// Queues `shard` for the table builder (once until it is picked up).
  void queue_tables(std::size_t shard);
  /// The builder thread. Its first job is the g/g' table pair for `sp`
  /// (the set's SystemParams), installed into every shard that shares
  /// them. Then it builds each queued shard's missing Encryptor tables,
  /// with g and g' from that pair, outside every lock and installs the
  /// complete Encryptor if the cache still holds the one it started from.
  void build_tables(const SystemParams& sp);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void()> on_fatal_;
  std::atomic<bool> fatal_{false};
  std::atomic<bool> follower_{false};
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> term_{0};
  /// steady_clock ns of the last primary contact; -1 = never.
  std::atomic<std::int64_t> primary_contact_ns_{-1};
  /// Guards repl_ (a plain mutex rather than std::atomic<shared_ptr>:
  /// the borrow is a pointer copy, never held across blocking work).
  mutable std::mutex repl_ptr_mu_;
  std::shared_ptr<ReplicationSender> repl_;
  std::atomic<std::uint64_t> next_add_{0};  // round-robin placement
  std::size_t rolled_at_open_ = 0;
  std::mutex barrier_mu_;  // serializes new_period_all (and promote)
  std::mutex term_mu_;     // serializes TERM-file persistence
  std::mutex build_mu_;    // guards build_queue_; build_stop_ is set under it
  std::condition_variable build_cv_;
  std::deque<std::size_t> build_queue_;
  std::atomic<bool> build_stop_{false};  // also read between table rows
  std::thread builder_;  // started last in the constructor, joined first
};

}  // namespace dfky::daemon
