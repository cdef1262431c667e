#include "daemon/group_commit.h"

#include "obs/metrics.h"

namespace dfky::daemon {

GroupCommit::GroupCommit(StateStore& store, StateMutex& state_mu,
                         std::function<void()> on_fatal, obs::Labels labels,
                         std::function<std::string()> post_sync)
    : store_(store),
      state_mu_(state_mu),
      on_fatal_(std::move(on_fatal)),
      batch_ns_(obs::histogram("dfkyd_commit_batch_ns", labels)),
      batches_total_(obs::counter("dfkyd_commit_batches_total", labels)),
      mutations_total_(obs::counter("dfkyd_commit_mutations_total", labels)),
      failures_total_(obs::counter("dfkyd_commit_failures_total", labels)),
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

void GroupCommit::submit(std::function<void()> op, Done done,
                         obs::TraceContext* trace) {
  {
    std::lock_guard lk(mu_);
    if (fatal_) throw ContractError("group commit: store failed (fail-stop)");
    if (stop_) throw ContractError("group commit: shutting down");
    queue_.push_back(Ticket{std::move(op), std::move(done), trace, nullptr});
    depth_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_one();
}

void GroupCommit::committer_loop() {
  for (;;) {
    std::vector<Ticket> batch;
    {
      std::unique_lock lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and fully drained
      batch.swap(queue_);
    }
    bool sync_failed = false;
    {
      obs::ScopedTimer span(batch_ns_);
      std::unique_lock state(state_mu_);
      for (Ticket& t : batch) {
        // The ticket's queue wait ends as its op starts executing.
        if (t.trace) t.trace->mark(obs::SpanKind::kQueueWait);
        try {
          t.op();
        } catch (...) {
          t.error = std::current_exception();
        }
      }
      try {
        store_.sync();
        // One append+fsync covered the whole batch, so every ticket gets
        // the same wal_append/fsync boundary: the store's append-done
        // stamp splits the two.
        const std::uint64_t append_done = store_.last_sync_append_done_ns();
        const std::uint64_t sync_done = obs::TraceContext::now_ns();
        for (Ticket& t : batch) {
          if (!t.trace) continue;
          t.trace->mark_at(obs::SpanKind::kWalAppend, append_done);
          t.trace->mark_at(obs::SpanKind::kFsync, sync_done);
        }
      } catch (...) {
        // The batch's fsync (or rotation) failed: nothing in this batch is
        // acknowledged, and the store has poisoned itself against
        // re-appending the staged frames. The batch's mutations are live
        // in the in-memory manager though — serving on would let a later
        // flush (or shutdown) silently commit NACKed state. Fail-stop:
        // this thread exits, submit() refuses new work, and the owner is
        // told to shut down so a restart can recover the true prefix.
        const std::exception_ptr err = std::current_exception();
        for (Ticket& t : batch) {
          if (!t.error) t.error = err;
        }
        sync_failed = true;
      }
    }
    std::string repl_label;
    if (!sync_failed && post_sync_) {
      // Replication gate, outside the state lock (the sender's shipping
      // threads take it shared to read the WAL) and before any completion
      // runs — no ticket is acked until live followers hold the batch.
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
        for (Ticket& t : batch) {
          if (!t.error) t.error = err;
        }
        sync_failed = true;
      }
    }
    if (!sync_failed) {
      const std::uint64_t acked = obs::TraceContext::now_ns();
      for (Ticket& t : batch) {
        if (t.trace) {
          t.trace->mark_at(obs::SpanKind::kReplAck, acked, repl_label);
        }
      }
      batches_.fetch_add(1, std::memory_order_relaxed);
      committed_.fetch_add(batch.size(), std::memory_order_relaxed);
      batches_total_.inc();
      mutations_total_.inc(batch.size());
    } else {
      // Before any completion runs: by the time a client sees the error,
      // the shutdown is already underway.
      failures_total_.inc();
      if (on_fatal_) on_fatal_();
      // Anything enqueued while the failed batch ran is failed too; from
      // here on submit() rejects at the door.
      std::lock_guard lk(mu_);
      fatal_ = true;
      for (Ticket& t : queue_) {
        t.error = std::make_exception_ptr(
            ContractError("group commit: store failed (fail-stop)"));
        batch.push_back(std::move(t));
      }
      queue_.clear();
    }
    // Completions run outside every lock, in submission order; a ticket
    // leaves the depth count as its completion starts.
    for (Ticket& t : batch) {
      depth_.fetch_sub(1, std::memory_order_relaxed);
      t.done(t.error);
    }
    if (sync_failed) return;
  }
}

}  // namespace dfky::daemon
