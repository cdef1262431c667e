// Streaming broadcast fan-out for dfkyd (DESIGN.md Sect. 16).
//
// The paper's whole point is one ciphertext serving an unbounded
// population; this is the delivery side. A client sends `subscribe
// [from-period]` and its connection becomes a push stream: every
// committed `new-period` / `encrypt` broadcast is serialized ONCE into a
// refcounted FeedFrame and fanned out to every subscriber through the
// reactor's bounded per-connection write queues (writev from the frame
// rope — no per-subscriber copy of the payload). A reconnecting
// receiver passes the last period it applied; each shard answers it with
// the missed epochs out of its reset archive, or with a verdict signed by
// that shard's key when its archive has evicted them
// (ShardRouter::catch_up). This is the one catch-up path.
//
// Threading: publish() is called from worker threads (after the commit
// is durable); the reactor thread drains pending frames via
// take_pending() when notify_fd() becomes readable and owns all
// per-subscriber state. The broadcast-to-all-current latency histogram
// is driven by the frame refcount itself: the last write queue to
// release its reference destroys the frame, which observes
// now - published.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dfky::daemon {

/// One serialized broadcast, encoded once and shared by every
/// subscriber's write queue (aliased shared_ptr into `line`).
struct FeedFrame {
  std::string line;  // full push line, '\n'-terminated
  std::uint64_t period = 0;
  std::chrono::steady_clock::time_point published{};
  ~FeedFrame();  // records broadcast-to-all-current latency
};
using FeedFramePtr = std::shared_ptr<const FeedFrame>;

/// Answer to `subscribe [from-period]`, per shard: the missed epochs out
/// of its reset archive, or, when the archive has evicted from+1, that
/// shard's signed EvictionVerdict. The verdict is final for the shard's
/// receivers, who must re-register; other shards' receivers ignore it.
struct FeedReplay {
  std::uint64_t current = 0;  // the store's period (max over shards)
  std::vector<std::string> verdicts;  // hex EvictionVerdicts, shard order
  std::vector<std::string> lines;  // one push line per missed epoch, no '\n'
};
using FeedReplayFn = std::function<FeedReplay(std::optional<std::uint64_t>)>;

/// The worker-side half of the fan-out: a pending-frame queue plus a
/// self-pipe the reactor registers in epoll. The reactor side (stream
/// registration, fan-out, shedding) lives in reactor.cpp.
class FeedHub {
 public:
  FeedHub();
  ~FeedHub();
  FeedHub(const FeedHub&) = delete;
  FeedHub& operator=(const FeedHub&) = delete;

  /// Read end of the notify pipe (non-blocking); becomes readable when
  /// frames are pending. The reactor registers it alongside its other
  /// sentinels.
  int notify_fd() const { return pipe_[0]; }

  /// Encode `line` (newline appended) as one shared frame and make
  /// notify_fd() readable. Thread-safe; called after the broadcast's
  /// commit is durable.
  void publish(std::string line, std::uint64_t period);

  /// Drain the pending frames (reactor thread). The caller is expected
  /// to have drained notify_fd() too.
  std::vector<FeedFramePtr> take_pending();

  /// Replay source for `subscribe from-period` (the daemon and the
  /// simulators wire ShardRouter::catch_up in; reactor tests and bench_feed
  /// a fixed history). Thread-safe swap.
  void set_replay(FeedReplayFn fn);
  FeedReplay replay(std::optional<std::uint64_t> from) const;

  std::uint64_t frames_published() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  int pipe_[2] = {-1, -1};
  mutable std::mutex mu_;
  std::vector<FeedFramePtr> pending_;
  FeedReplayFn replay_;
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace dfky::daemon
