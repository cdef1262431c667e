// Event-driven front end for dfkyd (DESIGN.md Sect. 15).
//
// One epoll loop owns every client socket: non-blocking accepts, per-
// connection incremental line framing (LineFramer), and per-connection
// bounded write queues flushed on EPOLLOUT. Request execution happens on
// a small fixed worker pool — the reactor thread never blocks on a
// handler, and no per-connection or per-request thread is ever spawned.
// A handler answers through a Reply that may run on any thread: reads
// reply from the worker, mutations from their shard's committer once
// durable, so no worker waits for an fsync. This replaces
// the thread-per-connection serve path, whose ~2 threads + 2 stacks per
// idle client put a low ceiling on concurrent connections.
//
// Per-connection pipelining semantics are unchanged from the threaded
// front end (protocol.h): tagged requests run concurrently (bounded
// fan-out) and complete out of order; an untagged request waits for the
// tagged ones in flight, runs alone, and blocks later dispatch until it
// answers.
//
// Policies, all bounded and observable on /metrics:
//   * EMFILE/ENFILE on accept: a reserved fd is burned to accept the
//     connection, answer `err busy`, and close it — then accepting
//     pauses for a backoff instead of hot-spinning on a level-triggered
//     ready listen socket.
//   * Admission control: when the group-commit queues are saturated
//     (depth >= busy_queue_limit), new mutations are shed with
//     `err busy` before they are enqueued, and accepting pauses until
//     the backlog drains. Reads and repl/cluster verbs are never shed.
//   * Write backpressure: a connection that stops reading its responses
//     first has its reads paused (the kernel socket buffers then
//     backpressure the client), and is closed once its queue passes
//     write_queue_limit.
//   * Idle reaping: connections with no traffic for idle_timeout_ms are
//     closed (0 disables). Metrics scrapers get a short fixed deadline
//     and a connection cap instead — a scraper flood can no longer
//     spawn unbounded threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "daemon/protocol.h"

namespace dfky::daemon {

class FeedHub;

struct ReactorOptions {
  int listen_fd = -1;   // bound+listening unix socket (required)
  int metrics_fd = -1;  // bound+listening loopback TCP socket (-1: none)
  int wake_fd = -1;     // read end of the owner's wake pipe (required)

  std::size_t workers = 4;  // request-execution pool size (>= 1)
  /// Concurrently executing tagged requests per connection (the threaded
  /// front end's kMaxInFlight).
  std::size_t max_inflight_per_conn = 64;
  /// Parsed-but-undispatched lines buffered per connection before its
  /// reads pause.
  std::size_t max_pending_per_conn = 128;
  /// Bytes of unflushed responses before the connection is closed as
  /// unresponsive. Must exceed one max-size response line.
  std::size_t write_queue_limit = 2 * kMaxLineBytes;
  /// Close client connections idle this long, in ms (0: never).
  int idle_timeout_ms = 0;
  /// Metrics scraper read/flush deadline, ms (they get no idle grace).
  int metrics_timeout_ms = 2000;
  std::size_t max_metrics_conns = 32;
  /// Shed mutations with `err busy` while the group-commit depth is at or
  /// past this (0: never shed).
  std::size_t busy_queue_limit = 0;
  /// Accept pause after an EMFILE/ENFILE accept failure, ms.
  int accept_backoff_ms = 100;
  /// Streaming fan-out hub (DESIGN.md Sect. 16). When set, `subscribe
  /// [from-period]` upgrades a connection to a push stream: published
  /// frames are fanned out through the bounded write queues (one
  /// refcounted copy, writev from the frame rope), slow subscribers are
  /// shed by the ordinary overflow close, and missed epochs are replayed
  /// via the hub's replay source. Not owned; must outlive run().
  FeedHub* feed = nullptr;
};

class Reactor {
 public:
  using Result = HandlerResult;
  using Reply = daemon::Reply;
  /// Starts one request line; called from worker threads, must be
  /// thread-safe (RequestHandler::handle is). The answer goes to the
  /// Reply, exactly once, from whichever thread has it — the worker may
  /// return first. Its completion is queued to the reactor thread through
  /// the completion pipe.
  using Handler = std::function<void(const std::string&, Reply)>;

  /// Counters/levels for tests and gauges; snapshot via stats().
  struct Stats {
    std::uint64_t accepted = 0;        // client conns accepted
    std::uint64_t emfile_rejects = 0;  // accepts shed for fd exhaustion
    std::uint64_t busy_shed = 0;       // mutations answered `err busy`
    std::uint64_t idle_reaped = 0;
    std::uint64_t overflow_closed = 0;  // write-queue overflow closes
    std::uint64_t metrics_rejects = 0;  // scrapers over the conn cap
    std::size_t open_conns = 0;         // current client conns
    std::uint64_t feed_shed = 0;      // subscribers closed as too slow
    std::uint64_t feed_replayed = 0;  // replayed epoch frames (subscribe)
    std::size_t subscribers = 0;      // current push-stream conns
  };

  /// `queue_depth` (may be empty) returns the admission-control signal —
  /// mutations submitted to group commit and not yet (N)ACKed.
  /// `on_shutdown_request` (may be empty) is invoked from the reactor
  /// thread after a handler result carried shutdown=true and its
  /// response was queued; the owner is expected to make wake_fd readable.
  Reactor(ReactorOptions opts, Handler handler,
          std::function<std::size_t()> queue_depth = {},
          std::function<void()> on_shutdown_request = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Serves until wake_fd becomes readable, then drains: accepting
  /// stops, undispatched input is dropped, every request already handed
  /// to the pool is answered (also on connections that closed meanwhile)
  /// and has its response flushed (bounded by a drain deadline), the pool
  /// joins. Client fds are closed; the listen
  /// fds and wake_fd stay open (the owner closes them).
  void run();

  Stats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace dfky::daemon
