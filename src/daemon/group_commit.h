// Group-commit queue for the manager daemon (DESIGN.md Sect. 10).
//
// Concurrent connections submit mutation closures; one committer thread
// drains the queue, puts the store into batching mode, executes the whole
// batch serially against the manager state, then issues the batch's single
// WAL append+fsync via StateStore::sync(). A submitter's run() returns
// only after the sync that covers its mutation — durable-before-ack is
// preserved, at one fsync per batch instead of one per mutation (measured
// in bench_daemon, E12).
//
// The state mutex is the daemon-wide reader/writer lock on the manager:
// the committer holds it exclusively for the duration of a batch, readers
// (status, encrypt) take it shared between batches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "daemon/state_mutex.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/store.h"

namespace dfky::daemon {

class GroupCommit {
 public:
  /// Puts `store` into batching mode for its lifetime; both references
  /// must outlive the queue. `on_fatal` (optional) is invoked once, from
  /// the committer thread, when a batch's sync() fails — the queue has
  /// fail-stopped and the owner should shut down (see fatal()).
  /// `labels` is attached to every dfkyd_commit_* metric this queue
  /// emits; a sharded daemon passes {{"shard", "<k>"}} so per-shard
  /// committers stay distinguishable in one registry.
  /// `post_sync` (optional) runs on the committer thread after each
  /// successful batch sync, after the state lock is released but BEFORE
  /// any submitter is acked — the replication hook: a primary blocks here
  /// until live followers ack the batch, keeping durable-on-a-follower
  /// part of the acknowledgement contract. Its return value labels the
  /// batch's repl_ack trace spans (the follower names that held the
  /// batch; "" for no label). A throw REFUSES the ack: the batch is
  /// NACKed and the queue fail-stops (how a lease-fenced or stale-term
  /// primary guarantees it never acknowledges past the fence).
  GroupCommit(StateStore& store, StateMutex& state_mu,
              std::function<void()> on_fatal = {}, obs::Labels labels = {},
              std::function<std::string()> post_sync = {});
  /// Drains everything still queued, stops the committer, returns the
  /// store to fsync-per-mutation mode (a poisoned store skips the flush).
  ~GroupCommit();

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// The destructor's work as an idempotent, thread-safe call: drains the
  /// queue, joins the committer, returns the store to fsync-per-mutation
  /// mode. run() refuses new submissions from the moment this starts.
  /// demote() uses this to stop a live queue while stragglers may still
  /// hold a reference to it.
  void shut_down();

  /// Runs `op` on the committer thread, grouped under one fsync with
  /// concurrently submitted ops. `op` must only touch the store/manager
  /// (the committer already holds the state lock) and may throw
  /// dfky::Error for invalid requests — the exception is rethrown here
  /// and the op's own changes were never applied (manager mutations
  /// validate before they mutate). Blocks until the covering sync is
  /// durable. Throws ContractError after shutdown began or after a sync
  /// failure fail-stopped the queue.
  void run(const std::function<void()>& op);

  std::uint64_t batches() const { return batches_; }
  std::uint64_t committed() const { return committed_; }
  /// True after a batch's sync() failed. The batch's ops were applied to
  /// the in-memory manager but their durability is INDETERMINATE (the
  /// store is poisoned; what reached the WAL is recovered on the next
  /// open). The committer has exited, every queued ticket was failed, and
  /// run() refuses new work — the owner must fail-stop and restart.
  bool fatal() const {
    std::lock_guard lk(mu_);
    return fatal_;
  }

  /// Mutations currently waiting for the committer (excludes the batch
  /// being flushed right now). Health reporting reads this as the shard's
  /// queue depth.
  std::size_t queued() const {
    std::lock_guard lk(mu_);
    return queue_.size();
  }

  /// Mutations submitted but not yet acked or NACKed (queued + the batch
  /// in flight). Lock-free: the reactor's admission control polls this on
  /// every mutation dispatch, so it must never contend with the committer
  /// (DESIGN.md Sect. 15).
  std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }

 private:
  struct Ticket {
    const std::function<void()>* op;
    std::exception_ptr error;
    bool done = false;
    /// The submitter's request trace, stamped by the committer thread
    /// (queue_wait / wal_append / fsync / repl_ack). Safe without extra
    /// synchronization: the submitter blocks until `done`, and the done
    /// hand-off (mutex + condvar) orders the committer's writes before
    /// the submitter's reads. Null when the request isn't traced.
    obs::TraceContext* trace = nullptr;
  };

  void committer_loop();

  StateStore& store_;
  StateMutex& state_mu_;
  std::function<void()> on_fatal_;
  // This queue's dfkyd_commit_* series, resolved once for its labels.
  obs::Histogram& batch_ns_;
  obs::Counter& batches_total_;
  obs::Counter& mutations_total_;
  obs::Counter& failures_total_;
  // Replication ack gate (may be empty); returns the repl_ack span label.
  std::function<std::string()> post_sync_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // committer: queue non-empty or stop
  std::condition_variable done_cv_;  // submitters: my ticket is done
  std::vector<Ticket*> queue_;
  bool stop_ = false;
  bool fatal_ = false;  // a sync failed; the committer has fail-stopped
  std::once_flag shutdown_once_;  // shut_down() races dtor vs demote

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::size_t> depth_{0};  // submitted and not yet (N)ACKed

  std::thread committer_;  // last member: starts after everything above
};

}  // namespace dfky::daemon
