#include "daemon/reactor.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "daemon/feed.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dfky::daemon {

namespace {

using Clock = std::chrono::steady_clock;

/// epoll_event.data.u64 sentinels; connection ids start above them.
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kListenId = 2;
constexpr std::uint64_t kMetricsListenId = 3;
constexpr std::uint64_t kCompletionId = 4;
constexpr std::uint64_t kFeedId = 5;
constexpr std::uint64_t kFirstConnId = 16;

/// Segments gathered per writev batch.
constexpr std::size_t kWritevBatch = 64;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Verbs funneled through group commit — the only ones admission control
/// sheds. Reads stay cheap under load and repl/cluster verbs must never
/// bounce (a shed repl-append would stall replication exactly when the
/// primary is busiest).
bool is_shed_verb(std::string_view body) {
  const std::size_t sp = body.find(' ');
  const std::string_view verb =
      sp == std::string_view::npos ? body : body.substr(0, sp);
  return verb == "add-user" || verb == "revoke" || verb == "new-period";
}

/// `subscribe` is the one verb the reactor answers itself: it mutates
/// per-connection stream state the workers cannot see. Never shed — a
/// busy daemon is exactly when receivers need the push stream.
bool is_subscribe_verb(std::string_view body) {
  const std::size_t sp = body.find(' ');
  const std::string_view verb =
      sp == std::string_view::npos ? body : body.substr(0, sp);
  return verb == "subscribe";
}

/// One metrics scraper exchange (same contract as the old detached-thread
/// server): parse the request line, answer Prometheus text, close.
std::string metrics_http_response(const std::string& request) {
  std::string status = "200 OK";
  std::string body;
  if (request.starts_with("GET /trace")) {
    body = obs::trace_jsonl();
    obs::counter("dfkyd_trace_scrapes_total").inc();
  } else if (request.starts_with("GET /metrics") ||
             request.starts_with("GET / ")) {
    body = obs::MetricsRegistry::instance().prometheus();
    obs::counter("dfkyd_metrics_scrapes_total").inc();
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  char head[256];
  std::snprintf(head, sizeof head,
                "HTTP/1.0 %s\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status.c_str(), body.size());
  return std::string(head) + body;
}

std::size_t count_open_fds() {
  std::size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n >= 3 ? n - 2 : n;  // ".", ".." and the opendir fd roughly cancel
}

}  // namespace

struct Reactor::Impl {
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    bool metrics = false;

    // Client conns: incremental framing + pipelining state.
    LineFramer framer;
    std::deque<std::string> pending;  // complete lines, not yet dispatched
    std::size_t in_flight = 0;        // tagged requests at the pool
    bool untagged_running = false;

    // Write side, both kinds of conn: a rope of refcounted segments
    // drained with writev. Broadcast fan-out aliases ONE FeedFrame
    // buffer into every subscriber's rope — no per-subscriber copy.
    struct Seg {
      std::shared_ptr<const std::string> data;
      std::size_t off = 0;  // bytes of *data already sent
    };
    std::deque<Seg> wq;
    std::size_t wq_bytes = 0;  // unflushed bytes across all segments

    std::uint32_t interest = 0;  // events currently registered
    bool read_paused = false;
    bool read_closed = false;       // peer EOF (or drain shut the read side)
    bool close_after_flush = false;
    bool line_overflow = false;     // framer poisoned: err + close
    bool overflow_err_queued = false;
    bool subscriber = false;  // upgraded to a push stream by `subscribe`

    Clock::time_point last_activity;
    /// Hard close time: always set on scrapers, set on a client conn
    /// once it owes us nothing but a final flush it may never take.
    Clock::time_point deadline{};
    std::string http_req;  // scrapers only

    std::size_t wq_size() const { return wq_bytes; }
  };

  struct Job {
    std::uint64_t conn_id;
    std::string line;
    bool untagged;
  };
  struct Completion {
    std::uint64_t conn_id;
    std::string bytes;  // newline-terminated response
    bool untagged;
    bool shutdown;
  };

  ReactorOptions opts;
  Handler handler;
  std::function<std::size_t()> queue_depth;
  std::function<void()> on_shutdown;

  int epfd = -1;
  int comp_pipe[2] = {-1, -1};  // [0] in epoll, [1] nonblocking, workers kick
  int reserve_fd = -1;          // burned to drain accepts under EMFILE

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_id = kFirstConnId;
  std::size_t metrics_conns = 0;
  std::unordered_set<std::uint64_t> subscribers;  // push-stream conn ids

  bool draining = false;
  bool accept_paused = false;  // listen fd out of the epoll set
  bool accept_paused_busy = false;
  Clock::time_point accept_resume{};  // EMFILE backoff expiry
  bool emfile_logged = false;
  Clock::time_point last_fd_gauge{};
  Clock::time_point last_tick{};

  // Worker pool.
  std::vector<std::thread> workers;
  std::mutex jobs_mu;
  std::condition_variable jobs_cv;
  std::deque<Job> jobs;
  bool jobs_stop = false;
  std::mutex comp_mu;
  std::vector<Completion> completions;
  /// Requests handed to the pool and not yet answered, connections that
  /// closed meanwhile included. Reactor thread only.
  std::size_t outstanding = 0;
  /// Repliers between queuing their completion and writing the pipe.
  std::atomic<int> kicks{0};

  // Stats, readable from other threads (tests poll while run() serves).
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> emfile_rejects{0};
  std::atomic<std::uint64_t> busy_shed{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> overflow_closed{0};
  std::atomic<std::uint64_t> metrics_rejects{0};
  std::atomic<std::size_t> open_conns{0};
  std::atomic<std::uint64_t> feed_shed{0};
  std::atomic<std::uint64_t> feed_replayed{0};
  std::atomic<std::size_t> subscriber_count{0};

  // ---- epoll plumbing ----

  void ep_add(int fd, std::uint64_t id, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = id;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  }
  void ep_mod(int fd, std::uint64_t id, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = id;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev);
  }
  void ep_del(int fd) { ::epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr); }

  /// Reconciles a connection's registered events with what it needs now:
  /// EPOLLIN unless its reads are paused or closed, EPOLLOUT while
  /// responses wait for socket buffer space.
  void update_interest(Conn& c) {
    std::uint32_t want = 0;
    if (!c.read_closed && !c.read_paused) want |= EPOLLIN;
    if (c.wq_size() > 0) want |= EPOLLOUT;
    if (want != c.interest) {
      ep_mod(c.fd, c.id, want);
      c.interest = want;
    }
  }

  // ---- connection lifecycle ----

  Conn* find(std::uint64_t id) {
    const auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }

  void close_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& c = *it->second;
    if (c.metrics) {
      --metrics_conns;
    } else {
      open_conns.fetch_sub(1, std::memory_order_relaxed);
    }
    if (c.subscriber) {
      subscribers.erase(id);
      subscriber_count.store(subscribers.size(), std::memory_order_relaxed);
    }
    ::close(c.fd);  // the kernel drops it from the epoll set
    conns.erase(it);
  }

  /// Appends one response (an owned segment) and flushes what the
  /// socket accepts now. Returns false when the connection was closed
  /// (write-queue overflow or a dead peer) — the caller's Conn
  /// reference is gone.
  bool queue_bytes(Conn& c, std::string bytes) {
    if (bytes.empty()) return flush_wq(c);
    return queue_seg(c, std::make_shared<const std::string>(std::move(bytes)));
  }

  /// Appends one refcounted segment — broadcast fan-out pushes the SAME
  /// frame buffer into every subscriber's rope through here.
  bool queue_seg(Conn& c, std::shared_ptr<const std::string> seg) {
    c.wq_bytes += seg->size();
    c.wq.push_back(Conn::Seg{std::move(seg), 0});
    return flush_wq(c);
  }

  bool flush_wq(Conn& c) {
    while (!c.wq.empty()) {
      iovec iov[kWritevBatch];
      std::size_t iovcnt = 0;
      for (const Conn::Seg& s : c.wq) {
        if (iovcnt == kWritevBatch) break;
        iov[iovcnt].iov_base =
            const_cast<char*>(s.data->data() + s.off);
        iov[iovcnt].iov_len = s.data->size() - s.off;
        ++iovcnt;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iovcnt;
      const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(c.id);
        return false;
      }
      c.wq_bytes -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        Conn::Seg& s = c.wq.front();
        const std::size_t avail = s.data->size() - s.off;
        if (left < avail) {
          s.off += left;
          break;
        }
        left -= avail;
        c.wq.pop_front();  // releases this conn's frame reference
      }
    }
    if (c.wq_bytes > opts.write_queue_limit) {
      // The peer stopped reading its responses long ago; holding its
      // backlog in memory indefinitely is the unbounded-thread bug in a
      // new costume. Drop the connection. For a push stream this IS the
      // slow-subscriber shed: its queued frame references are released
      // and nobody else's stream is touched.
      overflow_closed.fetch_add(1, std::memory_order_relaxed);
      obs::counter("dfkyd_write_overflow_closed_total").inc();
      if (c.subscriber) {
        feed_shed.fetch_add(1, std::memory_order_relaxed);
        obs::counter("dfkyd_feed_shed_total").inc();
      }
      close_conn(c.id);
      return false;
    }
    return true;
  }

  // ---- request dispatch ----

  void submit(std::uint64_t conn_id, std::string line, bool untagged) {
    ++outstanding;
    {
      std::lock_guard lk(jobs_mu);
      jobs.push_back(Job{conn_id, std::move(line), untagged});
    }
    jobs_cv.notify_one();
  }

  bool should_shed(std::string_view body) const {
    if (opts.busy_queue_limit == 0 || !queue_depth) return false;
    if (!is_shed_verb(body)) return false;
    return queue_depth() >= opts.busy_queue_limit;
  }

  /// Hands as many buffered lines to the pool as the pipelining rules
  /// allow (protocol.h): tagged lines run concurrently up to the
  /// per-connection bound, an untagged line waits for all of them and
  /// then runs alone. Returns false when the connection closed under a
  /// locally answered `err busy` whose flush failed.
  bool try_dispatch(Conn& c) {
    while (!c.pending.empty()) {
      const TaggedLine tagged = split_request_tag(c.pending.front());
      const bool is_tagged = tagged.id.has_value() && !tagged.bad_tag;
      if (c.untagged_running) break;
      if (opts.feed != nullptr && is_subscribe_verb(tagged.body)) {
        // Stream registration mutates reactor-owned state, so the
        // reactor answers it inline (no worker round trip). An untagged
        // subscribe still honors the barrier; a tagged one is
        // instantaneous and may answer out of order like any tagged
        // request.
        if (!is_tagged && c.in_flight > 0) break;
        const std::string line = std::move(c.pending.front());
        c.pending.pop_front();
        if (!handle_subscribe(c, split_request_tag(line))) return false;
        continue;
      }
      if (is_tagged) {
        if (c.in_flight >= opts.max_inflight_per_conn) break;
        if (should_shed(tagged.body)) {
          busy_shed.fetch_add(1, std::memory_order_relaxed);
          obs::counter("dfkyd_busy_shed_total").inc();
          const std::string resp =
              tag_response(tagged.id, err_response("busy")) + "\n";
          c.pending.pop_front();
          if (!queue_bytes(c, resp)) return false;
          continue;
        }
        ++c.in_flight;
        submit(c.id, std::move(c.pending.front()), /*untagged=*/false);
        c.pending.pop_front();
        continue;
      }
      if (c.in_flight > 0) break;
      if (should_shed(tagged.body)) {
        busy_shed.fetch_add(1, std::memory_order_relaxed);
        obs::counter("dfkyd_busy_shed_total").inc();
        c.pending.pop_front();
        if (!queue_bytes(c, err_response("busy") + "\n")) return false;
        continue;
      }
      c.untagged_running = true;
      submit(c.id, std::move(c.pending.front()), /*untagged=*/true);
      c.pending.pop_front();
      break;
    }
    c.read_paused = draining || c.line_overflow ||
                    c.pending.size() >= opts.max_pending_per_conn ||
                    c.wq_size() >= opts.write_queue_limit / 2;
    return true;
  }

  // ---- streaming fan-out (DESIGN.md Sect. 16) ----

  /// `subscribe [from-period]`, answered on the reactor thread: replay
  /// the missed epochs out of the hub's history, then upgrade the
  /// connection to a push stream. Returns false when the connection
  /// closed (flush failure or replay overflowing the write queue).
  bool handle_subscribe(Conn& c, const TaggedLine& t) {
    const std::vector<std::string> tokens = split_tokens(t.body);
    std::optional<std::uint64_t> from;
    bool bad = tokens.size() > 2;
    if (tokens.size() == 2) {
      from = parse_u64(tokens[1]);
      bad = !from.has_value();
    }
    if (bad) {
      obs::counter("dfkyd_requests_total",
                   {{"verb", "subscribe"}, {"outcome", "err"}})
          .inc();
      return queue_bytes(
          c, tag_response(t.id, err_response("usage: subscribe [from-period]")) +
                 "\n");
    }
    const FeedReplay rep = opts.feed->replay(from);
    if (!rep.ok) {
      // `from` predates every archive: the client needs the signed
      // catch-up protocol (RecoveryClient), not a feed replay. The
      // connection is NOT upgraded.
      obs::counter("dfkyd_requests_total",
                   {{"verb", "subscribe"}, {"outcome", "err"}})
          .inc();
      return queue_bytes(
          c, tag_response(
                 t.id, err_response("replay-unavailable oldest=" +
                                    std::to_string(rep.oldest) + " period=" +
                                    std::to_string(rep.current))) +
                 "\n");
    }
    if (!c.subscriber) {
      c.subscriber = true;
      subscribers.insert(c.id);
      subscriber_count.store(subscribers.size(), std::memory_order_relaxed);
    }
    obs::counter("dfkyd_requests_total",
                 {{"verb", "subscribe"}, {"outcome", "ok"}})
        .inc();
    const std::string head =
        tag_response(t.id,
                     ok_response({{"period", std::to_string(rep.current)},
                                  {"replayed",
                                   std::to_string(rep.lines.size())}})) +
        "\n";
    if (!queue_bytes(c, head)) return false;
    const std::size_t replayed = rep.lines.size();
    for (std::string line : rep.lines) {
      line += '\n';
      if (!queue_bytes(c, std::move(line))) return false;
    }
    feed_replayed.fetch_add(replayed, std::memory_order_relaxed);
    if (replayed > 0) {
      obs::counter("dfkyd_feed_replayed_total").inc(replayed);
    }
    return true;
  }

  /// Frames pending at the hub: encode-once fan-out. Every subscriber's
  /// rope gets an aliased reference to the SAME frame buffer; the frame
  /// dies (and stamps the broadcast-to-all-current histogram) when the
  /// last queue drains or sheds it.
  void on_feed_ready() {
    if (opts.feed == nullptr) return;
    char drainbuf[256];
    while (::read(opts.feed->notify_fd(), drainbuf, sizeof drainbuf) > 0) {
    }
    const std::vector<FeedFramePtr> frames = opts.feed->take_pending();
    if (frames.empty()) return;
    // Snapshot: a shed inside queue_seg mutates the live set.
    const std::vector<std::uint64_t> ids(subscribers.begin(),
                                         subscribers.end());
    for (const std::uint64_t id : ids) {
      Conn* c = find(id);
      if (c == nullptr || !c->subscriber) continue;
      bool alive = true;
      for (const FeedFramePtr& f : frames) {
        std::shared_ptr<const std::string> seg(f, &f->line);
        if (!queue_seg(*c, std::move(seg))) {
          alive = false;
          break;
        }
      }
      if (alive) update_interest(*c);  // arm EPOLLOUT for the tail
    }
  }

  /// Finishing moves once a connection has nothing left to do: the
  /// deferred oversize-line error, then the close it has been waiting
  /// for (peer EOF, protocol violation, or a flushed scraper response).
  void maybe_finish(std::uint64_t id) {
    Conn* c = find(id);
    if (c == nullptr) return;
    const bool quiesced =
        c->pending.empty() && c->in_flight == 0 && !c->untagged_running;
    if (c->line_overflow && quiesced && !c->overflow_err_queued) {
      // Matches the threaded front end: every complete line already read
      // gets its answer first, then the violation is reported and the
      // connection dropped.
      c->overflow_err_queued = true;
      c->close_after_flush = true;
      c->deadline = Clock::now() + std::chrono::seconds(5);
      if (!queue_bytes(*c, err_response("request line too long") + "\n")) {
        return;
      }
    }
    if ((c->read_closed || c->close_after_flush) && quiesced &&
        c->wq_size() == 0) {
      close_conn(id);
      return;
    }
    update_interest(*c);
  }

  // ---- accept paths ----

  void pause_accept(bool busy, Clock::time_point resume) {
    if (!accept_paused) {
      ep_del(opts.listen_fd);
      accept_paused = true;
    }
    accept_paused_busy = busy;
    accept_resume = resume;
  }

  void maybe_resume_accept(Clock::time_point now) {
    if (!accept_paused || draining) return;
    if (accept_paused_busy) {
      if (opts.busy_queue_limit != 0 && queue_depth &&
          queue_depth() >= opts.busy_queue_limit) {
        return;
      }
    } else if (now < accept_resume) {
      return;
    }
    accept_paused = false;
    accept_paused_busy = false;
    ep_add(opts.listen_fd, kListenId, EPOLLIN);
  }

  void on_listen_ready(Clock::time_point now) {
    for (int i = 0; i < 64; ++i) {
      if (opts.busy_queue_limit != 0 && queue_depth &&
          queue_depth() >= opts.busy_queue_limit) {
        // Saturated: stop taking on new clients until the committers
        // drain the backlog (existing connections shed per-request).
        pause_accept(/*busy=*/true, now);
        return;
      }
      const int cfd =
          ::accept4(opts.listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE) {
          reject_accept_emfile(now);
          return;
        }
        // ECONNABORTED and friends: the would-be client is gone; the
        // listen socket is fine.
        continue;
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      obs::counter("dfkyd_connections_total").inc();
      set_nonblocking(cfd);
      add_conn(cfd, /*metrics=*/false, now);
    }
  }

  /// EMFILE/ENFILE: the process is out of fds, and a level-triggered
  /// ready listen socket would otherwise spin this loop at 100% doing
  /// nothing. Burn the reserve fd to actually accept the connection,
  /// tell the client `err busy`, close it, and back off.
  void reject_accept_emfile(Clock::time_point now) {
    emfile_rejects.fetch_add(1, std::memory_order_relaxed);
    obs::counter("dfkyd_accept_overflow_total").inc();
    if (!emfile_logged) {
      emfile_logged = true;
      std::fprintf(stderr,
                   "dfkyd: accept: out of file descriptors; shedding new "
                   "connections (raise RLIMIT_NOFILE)\n");
    }
    if (reserve_fd >= 0) {
      ::close(reserve_fd);
      reserve_fd = -1;
      const int cfd =
          ::accept4(opts.listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd >= 0) {
        const char msg[] = "err busy\n";
        [[maybe_unused]] const ssize_t n =
            ::send(cfd, msg, sizeof msg - 1, MSG_NOSIGNAL | MSG_DONTWAIT);
        ::close(cfd);
      }
      reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    }
    pause_accept(/*busy=*/false,
                 now + std::chrono::milliseconds(opts.accept_backoff_ms));
  }

  void on_metrics_listen_ready(Clock::time_point now) {
    for (int i = 0; i < 16; ++i) {
      const int mfd =
          ::accept4(opts.metrics_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (mfd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN, EMFILE, ...: try again on the next wakeup
      }
      if (metrics_conns >= opts.max_metrics_conns) {
        // A scraper flood used to mean a thread per scrape, without
        // bound. Now it means a closed connection.
        metrics_rejects.fetch_add(1, std::memory_order_relaxed);
        obs::counter("dfkyd_metrics_rejected_total").inc();
        ::close(mfd);
        continue;
      }
      set_nonblocking(mfd);
      Conn* c = add_conn(mfd, /*metrics=*/true, now);
      c->deadline = now + std::chrono::milliseconds(opts.metrics_timeout_ms);
    }
  }

  Conn* add_conn(int fd, bool metrics, Clock::time_point now) {
    auto conn = std::make_unique<Conn>();
    Conn* c = conn.get();
    c->fd = fd;
    c->id = next_id++;
    c->metrics = metrics;
    c->last_activity = now;
    c->interest = EPOLLIN;
    conns.emplace(c->id, std::move(conn));
    if (metrics) {
      ++metrics_conns;
    } else {
      open_conns.fetch_add(1, std::memory_order_relaxed);
    }
    ep_add(fd, c->id, EPOLLIN);
    return c;
  }

  // ---- read paths ----

  void on_conn_readable(Conn& c, Clock::time_point now) {
    char buf[std::size_t{64} << 10];
    for (int i = 0; i < 16; ++i) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(c.id);
        return;
      }
      if (n == 0) {
        c.read_closed = true;
        break;
      }
      c.last_activity = now;
      if (c.metrics) {
        c.http_req.append(buf, static_cast<std::size_t>(n));
        if (c.http_req.size() > 8192) c.read_closed = true;  // not HTTP
        break;  // one request per connection; no need to drain more
      }
      c.framer.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto line = c.framer.next()) c.pending.push_back(std::move(*line));
      if (c.framer.overflowed()) {
        c.line_overflow = true;
        ::shutdown(c.fd, SHUT_RD);
        c.read_closed = true;
        break;
      }
      if (c.pending.size() >= opts.max_pending_per_conn) break;
    }
    if (c.metrics) {
      if (c.http_req.find("\r\n\r\n") != std::string::npos ||
          c.http_req.find("\n\n") != std::string::npos || c.read_closed) {
        c.read_closed = true;
        c.close_after_flush = true;
        if (!queue_bytes(c, metrics_http_response(c.http_req))) return;
      }
      maybe_finish(c.id);
      return;
    }
    if (!try_dispatch(c)) return;
    maybe_finish(c.id);
  }

  // ---- completions ----

  void on_completions() {
    char drainbuf[256];
    while (::read(comp_pipe[0], drainbuf, sizeof drainbuf) > 0) {
    }
    std::vector<Completion> done;
    {
      std::lock_guard lk(comp_mu);
      done.swap(completions);
    }
    const auto now = Clock::now();
    outstanding -= done.size();
    for (Completion& comp : done) {
      bool alive = true;
      if (Conn* c = find(comp.conn_id)) {
        if (comp.untagged) {
          c->untagged_running = false;
        } else if (c->in_flight > 0) {
          --c->in_flight;
        }
        c->last_activity = now;
        alive = queue_bytes(*c, std::move(comp.bytes));
        if (alive) alive = try_dispatch(*c);
        if (alive) maybe_finish(comp.conn_id);
      }
      if (comp.shutdown && on_shutdown) on_shutdown();
    }
  }

  // ---- periodic work ----

  void on_tick(Clock::time_point now) {
    maybe_resume_accept(now);
    if (now - last_tick < std::chrono::milliseconds(50)) return;
    last_tick = now;
    std::vector<std::uint64_t> reap_deadline;
    std::vector<std::uint64_t> reap_idle;
    for (const auto& [id, c] : conns) {
      if (c->deadline != Clock::time_point{} && now >= c->deadline) {
        reap_deadline.push_back(id);
        continue;
      }
      if (c->metrics || opts.idle_timeout_ms <= 0) continue;
      // A push stream is legitimately quiet between broadcasts — it is
      // never idle-reaped (a dead peer still fails its next fan-out).
      if (c->subscriber) continue;
      if (c->in_flight > 0 || c->untagged_running || !c->pending.empty() ||
          c->wq_size() > 0) {
        continue;
      }
      if (now - c->last_activity >=
          std::chrono::milliseconds(opts.idle_timeout_ms)) {
        reap_idle.push_back(id);
      }
    }
    for (const std::uint64_t id : reap_deadline) close_conn(id);
    for (const std::uint64_t id : reap_idle) {
      idle_reaped.fetch_add(1, std::memory_order_relaxed);
      obs::counter("dfkyd_idle_reaped_total").inc();
      close_conn(id);
    }
    obs::gauge("dfkyd_conns").set(static_cast<std::int64_t>(
        open_conns.load(std::memory_order_relaxed)));
    obs::gauge("dfkyd_metrics_conns")
        .set(static_cast<std::int64_t>(metrics_conns));
    obs::gauge("dfkyd_feed_subscribers")
        .set(static_cast<std::int64_t>(subscribers.size()));
    if (now - last_fd_gauge >= std::chrono::seconds(1)) {
      last_fd_gauge = now;
      obs::gauge("dfkyd_fds_open")
          .set(static_cast<std::int64_t>(count_open_fds()));
      rlimit rl{};
      if (::getrlimit(RLIMIT_NOFILE, &rl) == 0) {
        obs::gauge("dfkyd_fds_limit")
            .set(static_cast<std::int64_t>(rl.rlim_cur));
      }
    }
  }

  // ---- drain ----

  /// Stop-the-front-end sequence, same contract as the threaded path:
  /// accepting stops, reads stop (undispatched input is dropped — the
  /// old loop dropped its read buffer the same way), every request
  /// already at the pool completes and its ack is flushed, then a
  /// bounded flush window covers clients slow to read the last bytes.
  void drain() {
    draining = true;
    ep_del(opts.wake_fd);  // level-triggered; would spin the drain loop
    if (!accept_paused) ep_del(opts.listen_fd);
    if (opts.metrics_fd >= 0) ep_del(opts.metrics_fd);
    for (auto& [id, c] : conns) {
      if (!c->read_closed) {
        ::shutdown(c->fd, SHUT_RD);
        c->read_closed = true;
      }
      c->pending.clear();
      update_interest(*c);
    }
    std::optional<Clock::time_point> flush_deadline;
    epoll_event events[64];
    for (;;) {
      // A worker finishing new-period mid-drain may still publish; fan
      // those frames out BEFORE deciding whether anything is unflushed,
      // so in-flight broadcasts reach every subscriber's last flush.
      on_feed_ready();
      // A mutation's reply comes from its shard's committer, also for a
      // connection that is gone: wait for every one, not just the live
      // connections', so no Reply outlives the completion pipe.
      const bool executing = outstanding > 0;
      bool unflushed = false;
      for (const auto& [id, c] : conns) {
        if (c->wq_size() > 0) unflushed = true;
      }
      if (!executing && !unflushed) break;
      const auto now = Clock::now();
      if (!executing) {
        if (!flush_deadline) {
          flush_deadline = now + std::chrono::seconds(5);
        } else if (now >= *flush_deadline) {
          break;  // unresponsive clients forfeit their last responses
        }
      }
      const int n = ::epoll_wait(epfd, events, 64, 100);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = events[i].data.u64;
        if (id == kCompletionId) {
          on_completions();
        } else if (id == kFeedId) {
          on_feed_ready();
        } else if (Conn* c = find(id)) {
          if (events[i].events & (EPOLLERR | EPOLLHUP)) {
            close_conn(id);
          } else if (events[i].events & EPOLLOUT) {
            if (flush_wq(*c)) maybe_finish(id);
          }
        }
      }
    }
    {
      std::lock_guard lk(jobs_mu);
      jobs_stop = true;
    }
    jobs_cv.notify_all();
    for (std::thread& w : workers) w.join();
    workers.clear();
    std::vector<std::uint64_t> ids;
    ids.reserve(conns.size());
    for (const auto& [id, c] : conns) ids.push_back(id);
    for (const std::uint64_t id : ids) close_conn(id);
  }

  void worker_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock lk(jobs_mu);
        jobs_cv.wait(lk, [&] { return jobs_stop || !jobs.empty(); });
        if (jobs.empty()) return;  // stop requested and fully drained
        job = std::move(jobs.front());
        jobs.pop_front();
      }
      handler(job.line, [this, conn_id = job.conn_id,
                         untagged = job.untagged](Result res) {
        complete(conn_id, untagged, std::move(res));
      });
    }
  }

  /// A Reply, on whichever thread answers: queue the completion and kick
  /// the reactor. Only the push onto an empty list writes the pipe — the
  /// reactor drains the pipe before it swaps the list, so a later push
  /// finds the list empty again. The write happens after comp_mu is
  /// released (the woken reactor takes it at once); `kicks` counts the
  /// writes still to come, so run() closes the pipe only after them.
  void complete(std::uint64_t conn_id, bool untagged, Result res) {
    res.response += '\n';
    bool kick = false;
    {
      std::lock_guard lk(comp_mu);
      kick = completions.empty();
      completions.push_back(Completion{conn_id, std::move(res.response),
                                       untagged, res.shutdown});
      if (kick) kicks.fetch_add(1, std::memory_order_relaxed);
    }
    if (kick) {
      // Nonblocking; a full pipe already means a wakeup is pending.
      const char b = 1;
      [[maybe_unused]] const ssize_t n = ::write(comp_pipe[1], &b, 1);
      kicks.fetch_sub(1, std::memory_order_release);
    }
  }

  void run() {
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0) {
      std::fprintf(stderr, "dfkyd: epoll_create1: %s\n", std::strerror(errno));
      return;
    }
    if (::pipe2(comp_pipe, O_CLOEXEC | O_NONBLOCK) != 0) {
      std::fprintf(stderr, "dfkyd: pipe2: %s\n", std::strerror(errno));
      ::close(epfd);
      epfd = -1;
      return;
    }
    reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    set_nonblocking(opts.listen_fd);
    if (opts.metrics_fd >= 0) set_nonblocking(opts.metrics_fd);

    ep_add(opts.wake_fd, kWakeId, EPOLLIN);
    ep_add(opts.listen_fd, kListenId, EPOLLIN);
    if (opts.metrics_fd >= 0) ep_add(opts.metrics_fd, kMetricsListenId, EPOLLIN);
    ep_add(comp_pipe[0], kCompletionId, EPOLLIN);
    if (opts.feed != nullptr && opts.feed->notify_fd() >= 0) {
      ep_add(opts.feed->notify_fd(), kFeedId, EPOLLIN);
    }

    const std::size_t nworkers = opts.workers > 0 ? opts.workers : 1;
    workers.reserve(nworkers);
    for (std::size_t i = 0; i < nworkers; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }

    epoll_event events[128];
    bool wake = false;
    while (!wake) {
      const int n = ::epoll_wait(epfd, events, 128, 250);
      if (n < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "dfkyd: epoll_wait: %s\n", std::strerror(errno));
        break;
      }
      const auto now = Clock::now();
      for (int i = 0; i < n && !wake; ++i) {
        const std::uint64_t id = events[i].data.u64;
        switch (id) {
          case kWakeId:
            wake = true;
            break;
          case kListenId:
            on_listen_ready(now);
            break;
          case kMetricsListenId:
            on_metrics_listen_ready(now);
            break;
          case kCompletionId:
            on_completions();
            break;
          case kFeedId:
            on_feed_ready();
            break;
          default:
            if (Conn* c = find(id)) {
              if (events[i].events & (EPOLLERR | EPOLLHUP)) {
                close_conn(id);
                break;
              }
              if (events[i].events & EPOLLOUT) {
                if (!flush_wq(*c)) break;
                // Draining the queue may lift the backpressure pause.
                if (!try_dispatch(*c)) break;
              }
              if (events[i].events & EPOLLIN) {
                on_conn_readable(*c, now);
              } else {
                maybe_finish(id);
              }
            }
            break;
        }
      }
      on_tick(Clock::now());
    }

    drain();
    // drain() took every completion under comp_mu, so every replier that
    // still has to write the pipe is counted in `kicks` by now.
    while (kicks.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }

    ::close(comp_pipe[0]);
    ::close(comp_pipe[1]);
    comp_pipe[0] = comp_pipe[1] = -1;
    if (reserve_fd >= 0) {
      ::close(reserve_fd);
      reserve_fd = -1;
    }
    ::close(epfd);
    epfd = -1;
  }
};

Reactor::Reactor(ReactorOptions opts, Handler handler,
                 std::function<std::size_t()> queue_depth,
                 std::function<void()> on_shutdown_request)
    : impl_(new Impl) {
  impl_->opts = opts;
  impl_->handler = std::move(handler);
  impl_->queue_depth = std::move(queue_depth);
  impl_->on_shutdown = std::move(on_shutdown_request);
}

Reactor::~Reactor() { delete impl_; }

void Reactor::run() { impl_->run(); }

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.emfile_rejects = impl_->emfile_rejects.load(std::memory_order_relaxed);
  s.busy_shed = impl_->busy_shed.load(std::memory_order_relaxed);
  s.idle_reaped = impl_->idle_reaped.load(std::memory_order_relaxed);
  s.overflow_closed = impl_->overflow_closed.load(std::memory_order_relaxed);
  s.metrics_rejects = impl_->metrics_rejects.load(std::memory_order_relaxed);
  s.open_conns = impl_->open_conns.load(std::memory_order_relaxed);
  s.feed_shed = impl_->feed_shed.load(std::memory_order_relaxed);
  s.feed_replayed = impl_->feed_replayed.load(std::memory_order_relaxed);
  s.subscribers = impl_->subscriber_count.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dfky::daemon
