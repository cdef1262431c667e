// dfkyd — the long-running manager daemon (DESIGN.md Sect. 10–11).
//
// One daemon owns one store directory — a plain store or a shard root
// (autodetected; every shard's LOCK is taken) — and serves the newline
// protocol of daemon/protocol.h over a unix-domain stream socket through
// a ShardRouter. Connections are owned by an epoll reactor
// (daemon/reactor.h) and requests execute on its small fixed worker
// pool. Mutations (`add-user`, `revoke`, `new-period`) are funneled
// through the owning shard's GroupCommit queue (new-period through the
// cross-shard epoch barrier) and acknowledged only after their fsync;
// reads (`status`, `encrypt`) run on the worker threads under shared
// state locks. Requests tagged `@<id>` run concurrently and may
// complete out of order; untagged requests keep strict ordering.
// SIGINT/SIGTERM (or a `shutdown` request) drain in-flight requests,
// take a final snapshot on every shard and release the stores. An
// optional loopback TCP port answers `GET /metrics` with the obs
// registry's Prometheus text.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "daemon/failover.h"
#include "daemon/feed.h"
#include "daemon/repl.h"
#include "daemon/shard.h"
#include "rng/system_rng.h"
#include "store/store.h"

namespace dfky::daemon {

/// Request dispatch, socket-free so tests can drive it directly: one
/// protocol line in, one response line out (no trailing newline); a
/// leading `@<id>` tag is echoed on the response. Thread-safe; mutations
/// block until durable on their shard.
class RequestHandler {
 public:
  /// Daemon-level integration points for verbs that reach beyond the
  /// router. All optional — the simulator and tests wire what they need.
  struct Hooks {
    /// Invoked before ShardRouter::demote(): the owner detaches and stops
    /// its replication sender so no committer can be parked in the ack
    /// gate while demote() joins it.
    std::function<void()> pre_demote;
    /// Invoked after a non-idempotent demote: the owner re-arms its
    /// failover watchdog so the node keeps voting in (and standing for)
    /// elections as a follower.
    std::function<void()> post_demote;
    /// Invoked after a non-idempotent promote: the owner starts its
    /// replication sender — without it a manually promoted node would ack
    /// every mutation standalone, voiding the armed majority-ack contract
    /// (the watchdog's auto-promote runs the same path via on_promoted).
    std::function<void()> post_promote;
    /// Returns the failover watchdog's state name ("watching", ...) or ""
    /// when none is armed — surfaced by `health`.
    std::function<std::string()> watchdog_state;
    /// Invoked after a committed broadcast-worthy mutation (`new-period`,
    /// a revoke that rolled its shard's period, `encrypt`) with the push
    /// line for the streaming feed (DESIGN.md Sect. 16). Runs on a worker
    /// thread AFTER durability — subscribers never see an epoch the store
    /// could still lose — and never hands over a ciphertext before the
    /// reset that introduced its period (see FeedGate).
    std::function<void(std::string line, std::uint64_t period)> publish;
  };

  explicit RequestHandler(ShardRouter& router, Hooks hooks = {});

  struct Result {
    std::string response;
    bool shutdown = false;  // a `shutdown` request was acknowledged
  };
  Result handle(const std::string& line);

 private:
  std::string dispatch(const std::vector<std::string>& tokens);

  // Feed order (DESIGN.md Sect. 16): an `encrypt` frame sealed at period p
  // on shard s reaches hooks_.publish only after the reset to p for s. The
  // verbs that roll periods (new-period, revoke) hold a FeedGate from
  // before the roll until their reset frame is out, because a concurrent
  // encrypt can seal under the new key in between. While a gate is open,
  // an encrypt frame sealed past the period last announced for its shard
  // is held back, and goes out when a gate closes on its reset.
  class FeedGate;
  void publish_content(std::size_t shard, std::uint64_t period,
                       std::string line);

  ShardRouter& router_;
  Hooks hooks_;
  struct HeldFrame {
    std::size_t shard = 0;
    std::uint64_t period = 0;
    std::string line;
  };
  std::mutex feed_mu_;
  std::size_t feed_gates_ = 0;             // open FeedGates
  std::vector<std::uint64_t> announced_;   // per shard, while a gate is open
  std::vector<HeldFrame> held_;            // in publish order
};

struct DaemonOptions {
  std::string store_dir;  // plain store or shard root (autodetected)
  std::string socket_path;
  /// Loopback TCP port for GET /metrics: -1 disables, 0 binds an
  /// ephemeral port (reported by metrics_port() and on stdout).
  int metrics_port = -1;
  /// listen(2) backlog for the client socket; 0 uses SOMAXCONN (the
  /// kernel clamps to net.core.somaxconn either way — see README).
  int backlog = 0;
  /// Close client connections idle this long, in ms (0: never reap).
  int idle_timeout_ms = 0;
  /// Request-execution pool size; 0 sizes from the hardware (clamped to
  /// [4, 16]). This bounds concurrently executing requests daemon-wide —
  /// connections themselves are nearly free under the reactor.
  int workers = 0;
  /// Admission control (DESIGN.md Sect. 15): shed mutations with
  /// `err busy` and pause accepting while the group-commit queues hold
  /// this many un-acked mutations (0 disables).
  std::size_t busy_queue_limit = 1024;
  StoreOptions store;
  /// Come up as a read-only replica (DESIGN.md Sect. 12): no committers,
  /// mutations rejected, state advances via repl-append/repl-snap from a
  /// primary, `promote` flips to primary. A follower shard set is opened
  /// WITHOUT epoch equalization — rolling laggards forward writes local
  /// new-period records, which would fork the replicated stream.
  bool follower = false;
  /// Peer daemon socket paths. On a primary: the followers it replicates
  /// to. With auto_failover, every node lists every OTHER cluster member
  /// here (symmetric peer lists) — a promoted follower replicates to the
  /// same set it used to watch.
  std::vector<std::string> replicate_to;
  /// Arms self-healing failover (DESIGN.md Sect. 14). On a primary the
  /// replication sender gains a majority-ack lease plus idle heartbeats
  /// and the daemon fail-stops when fenced by a newer term; on a follower
  /// a watchdog election-promotes it once the primary goes silent. Both
  /// roles probe the peers at startup and start fenced if a newer-term
  /// primary already exists.
  bool auto_failover = false;
  /// Armed timings. Keep lease_ms <= hb_timeout_ms: a primary that lost
  /// its lease has fenced itself before any follower campaigns.
  int lease_ms = 750;
  int hb_interval_ms = 200;
  int hb_timeout_ms = 1000;
  int election_min_ms = 100;
  int election_max_ms = 400;
};

class Daemon {
 public:
  /// Opens the store — `opts.store_dir/shard.0` existing makes it a shard
  /// set, every shard's LOCK is taken (throws StoreLockedError when any
  /// shard is held by another daemon, and the already-locked shards are
  /// released). Laggard shards are rolled forward to the set's epoch.
  explicit Daemon(DaemonOptions opts);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the sockets, installs SIGINT/SIGTERM handlers, prints the
  /// `dfkyd: ready` line and serves until a signal, a `shutdown` request,
  /// or a commit/barrier failure (fail-stop); then drains connections,
  /// commits a final snapshot per shard, releases the store locks and
  /// removes the socket. Returns the process exit code (nonzero after a
  /// fail-stop or a failed final snapshot).
  int run();

  /// The bound metrics port (resolves option 0); -1 when disabled.
  int metrics_port() const { return metrics_port_; }

 private:
  void request_stop();
  /// Replay source for `subscribe from-period`: rebuilds the missed
  /// `new-period` push lines out of the shards' reset archives.
  FeedReplay feed_replay(std::optional<std::uint64_t> from);
  void probe_peers();        // armed startup: adopt/fence the cluster epoch
  void start_replication();  // idempotent; manual promote and on_promoted
  void stop_replication();   // idempotent; pre-demote and shutdown
  void start_watchdog();     // idempotent; armed startup and post-demote
  void stop_watchdog();      // shutdown

  DaemonOptions opts_;
  RealFileIo real_io_;
  /// Test-only: when DFKYD_TEST_FSYNC_STALL_US is set in the environment,
  /// every fsync sleeps that many microseconds first — daemon_e2e.sh uses
  /// it to force requests over the slow-trace threshold. Null in normal
  /// operation.
  std::unique_ptr<FileIo> stall_io_;
  FileIo& io_;  // stall_io_ when armed, else real_io_
  SystemRng rng_;  // shard-set open (roll-forward); shards get their own
  std::optional<ShardRouter> router_;
  /// Streaming fan-out hub (DESIGN.md Sect. 16): workers publish
  /// committed broadcasts through the handler's publish hook, the
  /// reactor fans them out to `subscribe`d connections. Created before
  /// handler_ (the hooks capture it) and destroyed after the reactor.
  std::unique_ptr<FeedHub> feed_;
  std::optional<RequestHandler> handler_;
  /// Engaged on a (possibly just-promoted) primary with peers. Guarded by
  /// repl_mu_: the watchdog thread engages it on promotion while a demote
  /// request or the shutdown path stops it. A shared_ptr because the
  /// router's committers borrow it through the post_sync gate — the last
  /// borrower leaving sync_shard keeps it alive past stop_replication().
  std::shared_ptr<ReplicationSender> repl_;
  std::mutex repl_mu_;
  /// Armed followers only. Guarded by watchdog_mu_: a demote request
  /// re-arms it while `health` reads its state (and shutdown stops it).
  std::unique_ptr<FailoverWatchdog> watchdog_;
  std::mutex watchdog_mu_;
  /// Set when a stale-term NACK fenced this (ex-)primary: exit nonzero
  /// and skip the final snapshots, exactly like a commit failure — the
  /// forked WAL suffix stays a WAL suffix for the re-seed to truncate.
  std::atomic<bool> fenced_exit_{false};

  int listen_fd_ = -1;
  int metrics_fd_ = -1;
  int metrics_port_ = -1;
  // Write end of the signal self-pipe. Atomic: a committer thread's
  // fail-stop callback writes to it concurrently with the main loop.
  std::atomic<int> wake_fd_{-1};
  std::atomic<bool> stopping_{false};
};

}  // namespace dfky::daemon
