#include "daemon/group_commit.h"

#include "obs/metrics.h"

namespace dfky::daemon {

GroupCommit::GroupCommit(StateStore& store, StateMutex& state_mu,
                         std::function<void()> on_fatal, obs::Labels labels,
                         std::function<std::string()> post_sync)
    : store_(store),
      state_mu_(state_mu),
      on_fatal_(std::move(on_fatal)),
      labels_(std::move(labels)),
      post_sync_(std::move(post_sync)) {
  store_.set_batching(true);
  committer_ = std::thread([this] { committer_loop(); });
}

GroupCommit::~GroupCommit() { shut_down(); }

void GroupCommit::shut_down() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    committer_.join();
    // Returns the store to fsync-per-mutation mode. On the normal path this
    // flushes nothing (the committer drained the queue); after a fail-stop
    // the store is poisoned and set_batching skips the flush, so mutations
    // that were NACKed can never silently become durable here.
    store_.set_batching(false);
  });
}

void GroupCommit::run(const std::function<void()>& op) {
  Ticket ticket{&op, nullptr, false, obs::current_trace()};
  {
    std::unique_lock lk(mu_);
    if (fatal_) throw ContractError("group commit: store failed (fail-stop)");
    if (stop_) throw ContractError("group commit: shutting down");
    queue_.push_back(&ticket);
    depth_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.notify_one();
    done_cv_.wait(lk, [&] { return ticket.done; });
  }
  if (ticket.error) std::rethrow_exception(ticket.error);
}

void GroupCommit::committer_loop() {
  for (;;) {
    std::vector<Ticket*> batch;
    {
      std::unique_lock lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and fully drained
      batch.swap(queue_);
    }
    bool sync_failed = false;
    {
      DFKY_OBS_TIMER(span, "dfkyd_commit_batch_ns", labels_);
      std::unique_lock state(state_mu_);
      for (Ticket* t : batch) {
        // The ticket's queue wait ends as its op starts executing.
        DFKY_OBS(if (t->trace) t->trace->mark(obs::SpanKind::kQueueWait););
        try {
          (*t->op)();
        } catch (...) {
          t->error = std::current_exception();
        }
      }
      try {
        store_.sync();
        // One append+fsync covered the whole batch, so every ticket gets
        // the same wal_append/fsync boundary: the store's append-done
        // stamp splits the two.
        DFKY_OBS(const std::uint64_t append_done =
                     store_.last_sync_append_done_ns();
                 const std::uint64_t sync_done =
                     obs::TraceContext::now_ns();
                 for (Ticket* t : batch) {
                   if (!t->trace) continue;
                   t->trace->mark_at(obs::SpanKind::kWalAppend, append_done);
                   t->trace->mark_at(obs::SpanKind::kFsync, sync_done);
                 });
      } catch (...) {
        // The batch's fsync (or rotation) failed: nothing in this batch is
        // acknowledged, and the store has poisoned itself against
        // re-appending the staged frames. The batch's mutations are live
        // in the in-memory manager though — serving on would let a later
        // flush (or shutdown) silently commit NACKed state. Fail-stop:
        // this thread exits, run() refuses new work, and the owner is
        // told to shut down so a restart can recover the true prefix.
        const std::exception_ptr err = std::current_exception();
        for (Ticket* t : batch) {
          if (!t->error) t->error = err;
        }
        sync_failed = true;
      }
    }
    std::string repl_label;
    if (!sync_failed && post_sync_) {
      // Replication gate, outside the state lock (the sender's shipping
      // threads take it shared to read the WAL) and before any ticket is
      // marked done — submitters never see their ack until live followers
      // hold the batch.
      try {
        repl_label = post_sync_();
      } catch (...) {
        // The gate REFUSED the ack (replication lease lost, or a higher
        // failover term fenced this node). The batch is durable in the
        // local WAL but acknowledging it would split history from the
        // cluster's: NACK every ticket and fail-stop exactly like a sync
        // failure. The un-acked suffix is discarded when this node
        // re-seeds from the new primary (DESIGN.md Sect. 14).
        const std::exception_ptr err = std::current_exception();
        for (Ticket* t : batch) {
          if (!t->error) t->error = err;
        }
        sync_failed = true;
      }
    }
    if (!sync_failed) {
      DFKY_OBS(const std::uint64_t acked = obs::TraceContext::now_ns();
               for (Ticket* t : batch) {
                 if (t->trace)
                   t->trace->mark_at(obs::SpanKind::kReplAck, acked,
                                     repl_label);
               });
      (void)repl_label;
      batches_.fetch_add(1, std::memory_order_relaxed);
      committed_.fetch_add(batch.size(), std::memory_order_relaxed);
      DFKY_OBS(obs::counter("dfkyd_commit_batches_total", labels_).inc();
               obs::counter("dfkyd_commit_mutations_total", labels_)
                   .inc(batch.size()););
    } else {
      // Before any submitter wakes to its NACK: by the time a client sees
      // the error, the shutdown is already underway.
      DFKY_OBS(obs::counter("dfkyd_commit_failures_total", labels_).inc(););
      if (on_fatal_) on_fatal_();
    }
    {
      std::lock_guard lk(mu_);
      for (Ticket* t : batch) t->done = true;
      depth_.fetch_sub(batch.size(), std::memory_order_relaxed);
      if (sync_failed) {
        // Anything enqueued while the failed batch ran gets failed too —
        // after fatal_ is set, run() rejects at the door.
        fatal_ = true;
        for (Ticket* t : queue_) {
          t->error = std::make_exception_ptr(
              ContractError("group commit: store failed (fail-stop)"));
          t->done = true;
        }
        depth_.fetch_sub(queue_.size(), std::memory_order_relaxed);
        queue_.clear();
      }
    }
    done_cv_.notify_all();
    if (sync_failed) return;
  }
}

}  // namespace dfky::daemon
