#include "daemon/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <future>
#include <memory>
#include <random>
#include <shared_mutex>
#include <thread>

#include "client/client.h"
#include "daemon/protocol.h"
#include "daemon/reactor.h"
#include "serial/buffer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dfky::daemon {

// ---- RequestHandler ------------------------------------------------------------

namespace {

/// The `err` line for an exception that refused a request.
std::string error_response(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return err_response(e.what());
  } catch (const std::exception& e) {
    return err_response(std::string("internal: ") + e.what());
  } catch (...) {
    return err_response("internal: unknown error");
  }
}

const char* verb_label(const std::string& verb) {
  static constexpr const char* kVerbs[] = {
      "ping", "status", "add-user", "revoke", "new-period", "encrypt",
      "shutdown", "repl-status", "repl-append", "repl-snap", "repl-truncate",
      "repl-hb", "promote", "demote", "health", "trace", "subscribe"};
  for (const char* v : kVerbs) {
    if (verb == v) return v;
  }
  return "unknown";  // keep the metric label set closed
}

std::string saturation_field(std::size_t level, std::size_t limit) {
  return std::to_string(level) + "/" + std::to_string(limit);
}

std::string periods_field(const ShardRouter::Status& st) {
  std::string out;
  for (std::size_t i = 0; i < st.periods.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(st.periods[i]);
  }
  return out;
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

std::string bundles_field(const std::vector<Bytes>& bundles) {
  std::string out;
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    if (i > 0) out += ',';
    out += hex_encode(bundles[i]);
  }
  return out;
}

}  // namespace

RequestHandler::RequestHandler(ShardRouter& router, Hooks hooks)
    : router_(router), hooks_(std::move(hooks)) {}

/// One roll-capable verb's hold on the feed (see daemon.h). The verb
/// records the periods its published reset announced in `rolled`; the
/// destructor then releases every held frame those announce, or all of
/// them when this was the last open gate.
class RequestHandler::FeedGate {
 public:
  explicit FeedGate(RequestHandler& h) : h_(h) {
    if (!h_.hooks_.publish) return;
    // With no gate open, every roll this handler made is announced and
    // any other (replication, promote, recovery) never will be, so the
    // current periods are the baseline. Read before the lock, and from
    // each shard's last committed state rather than under its state lock:
    // a value that goes stale meanwhile is only lower, which holds more,
    // not less.
    std::vector<std::uint64_t> periods = h_.router_.periods();
    std::lock_guard lk(h_.feed_mu_);
    if (h_.feed_gates_++ == 0) h_.announced_ = std::move(periods);
  }
  ~FeedGate() {
    if (!h_.hooks_.publish) return;
    std::vector<HeldFrame> ready;
    {
      std::lock_guard lk(h_.feed_mu_);
      for (const auto& [shard, period] : rolled) {
        h_.announced_[shard] = std::max(h_.announced_[shard], period);
      }
      const bool last = --h_.feed_gates_ == 0;
      const auto still_held = std::stable_partition(
          h_.held_.begin(), h_.held_.end(), [&](const HeldFrame& f) {
            return !last && f.period > h_.announced_[f.shard];
          });
      ready.assign(std::make_move_iterator(still_held),
                   std::make_move_iterator(h_.held_.end()));
      h_.held_.erase(still_held, h_.held_.end());
    }
    try {
      for (HeldFrame& f : ready) h_.hooks_.publish(std::move(f.line), 0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dfkyd: feed publish failed: %s\n", e.what());
    }
  }
  FeedGate(const FeedGate&) = delete;
  FeedGate& operator=(const FeedGate&) = delete;

  std::vector<std::pair<std::size_t, std::uint64_t>> rolled;  // shard, period

 private:
  RequestHandler& h_;
};

void RequestHandler::publish_content(std::size_t shard, std::uint64_t period,
                                     std::string line) {
  {
    std::lock_guard lk(feed_mu_);
    if (feed_gates_ > 0 && period > announced_[shard]) {
      held_.push_back({shard, period, std::move(line)});
      return;
    }
  }
  hooks_.publish(std::move(line), 0);
}

struct RequestHandler::Answer {
  std::optional<std::uint64_t> tag;
  const char* verb;
  obs::RequestTrace trace;
  Reply reply;

  /// Counts the request, closes its trace's `respond` span, files the
  /// trace and replies — on whichever thread has the answer. Called once.
  void send(std::string response, bool shutdown = false) {
    const bool ok = response[0] == 'o';
    obs::counter("dfkyd_requests_total",
                 {{"verb", verb}, {"outcome", ok ? "ok" : "err"}})
        .inc();
    trace.set_outcome(ok);
    trace.finish();
    reply({tag_response(tag, std::move(response)), shutdown});
  }
};

void RequestHandler::handle(const std::string& line, Reply reply) {
  // The request's whole lifetime inside the daemon. Layers below stamp
  // their spans through the thread-local context or the group-commit
  // ticket; Answer closes the final `respond` span just before the reply,
  // on the committer thread for a mutation.
  obs::ScopedTrace trace;
  if (line.size() > kMaxLineBytes) {
    reply({err_response("request line too long")});
    return;
  }
  const TaggedLine tagged = split_request_tag(line);
  obs::trace_mark(obs::SpanKind::kAccept);
  if (tagged.bad_tag) {
    reply({err_response("malformed request tag")});
    return;
  }
  const std::vector<std::string> tokens = split_tokens(tagged.body);
  if (tokens.empty()) {
    reply({tag_response(tagged.id, err_response("empty request"))});
    return;
  }
  const char* verb = verb_label(tokens[0]);
  trace.set_verb(verb);
  obs::trace_mark(obs::SpanKind::kParse);
  const auto answer = std::make_shared<Answer>(
      tagged.id, verb, trace.release(), std::move(reply));
  if (tokens[0] == "shutdown") {
    if (tokens.size() != 1) {
      answer->send(err_response("shutdown takes no arguments"));
    } else {
      answer->send(ok_response(), /*shutdown=*/true);
    }
    return;
  }
  std::string response;
  try {
    if (tokens[0] == "add-user" || tokens[0] == "revoke") {
      // Answered by the committer; nothing here may touch the trace
      // once the mutation is queued.
      return mutate(tokens, answer);
    }
    response = dispatch(tokens);
  } catch (...) {
    response = error_response(std::current_exception());
  }
  answer->send(std::move(response));
}

RequestHandler::Result RequestHandler::handle(const std::string& line) {
  const auto done = std::make_shared<std::promise<Result>>();
  std::future<Result> result = done->get_future();
  handle(line, [done](Result r) { done->set_value(std::move(r)); });
  return result.get();
}

void RequestHandler::mutate(const std::vector<std::string>& tokens,
                            const std::shared_ptr<Answer>& answer) {
  if (tokens[0] == "add-user") {
    if (tokens.size() != 1) {
      return answer->send(err_response("add-user takes no arguments"));
    }
    router_.add_user([answer](ShardRouter::AddedUser added,
                              std::exception_ptr error) {
      if (error) return answer->send(error_response(error));
      answer->send(ok_response({{"id", std::to_string(added.global_id)},
                                {"shard", std::to_string(added.shard)},
                                {"key", hex_encode(added.key_file)}}));
    });
    return;
  }
  if (tokens.size() < 2) {
    return answer->send(err_response("usage: revoke <id...>"));
  }
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto id = parse_u64(tokens[i]);
    if (!id) {
      return answer->send(err_response("bad user id '" + tokens[i] + "'"));
    }
    ids.push_back(*id);
  }
  // Held from before the first shard's roll until the last completion has
  // published the reset (or the revoke failed).
  auto gate = std::make_shared<FeedGate>(*this);
  router_.revoke(ids, [this, answer, gate = std::move(gate)](
                          ShardRouter::RevokeResult r,
                          std::exception_ptr error) mutable {
    std::string response;
    try {
      if (error) std::rethrow_exception(error);
      // A revoke that crossed its shard's saturation threshold rolled the
      // period reactively — subscribers need that reset like any other.
      if (!r.bundles.empty() && hooks_.publish) {
        hooks_.publish("bcast new-period period=" + std::to_string(r.period) +
                           " bundles=" + bundles_field(r.bundles),
                       r.period);
        gate->rolled = r.rolled;
      }
      response = ok_response(
          {{"period", std::to_string(r.period)},
           {"saturation",
            saturation_field(r.saturation_level, r.saturation_limit)},
           {"bundles", bundles_field(r.bundles)}});
    } catch (...) {
      response = error_response(std::current_exception());
    }
    gate.reset();  // releases the frames the reset announced
    answer->send(std::move(response));
  });
}

std::string RequestHandler::dispatch(const std::vector<std::string>& tokens) {
  const std::string& verb = tokens[0];

  if (verb == "ping") {
    if (tokens.size() != 1) return err_response("ping takes no arguments");
    return ok_response({{"pid", std::to_string(::getpid())}});
  }

  if (verb == "status") {
    if (tokens.size() != 1) return err_response("status takes no arguments");
    const ShardRouter::Status st = router_.status();
    return ok_response(
        {{"pid", std::to_string(::getpid())},
         {"role", router_.follower() ? "follower" : "primary"},
         {"term", std::to_string(router_.term())},
         {"shards", std::to_string(st.shards)},
         {"period", std::to_string(st.period)},
         {"periods", periods_field(st)},
         {"active", std::to_string(st.active)},
         {"revoked", std::to_string(st.revoked)},
         {"saturation",
          saturation_field(st.saturation_level, st.saturation_limit)},
         {"generation", std::to_string(st.generation)},
         {"wal_records", std::to_string(st.wal_records)},
         {"commit_batches", std::to_string(st.commit_batches)},
         {"committed", std::to_string(st.committed)}});
  }

  if (verb == "new-period") {
    if (tokens.size() != 1) {
      return err_response("new-period takes no arguments");
    }
    FeedGate gate(*this);
    const ShardRouter::NewPeriodResult r = router_.new_period_all();
    if (hooks_.publish) {
      hooks_.publish("bcast new-period period=" + std::to_string(r.period) +
                         " bundles=" + bundles_field(r.bundles),
                     r.period);
      for (std::size_t k = 0; k < router_.shards(); ++k) {
        gate.rolled.emplace_back(k, r.period);
      }
    }
    return ok_response({{"period", std::to_string(r.period)},
                        {"saturation", saturation_field(r.saturation_level,
                                                        r.saturation_limit)},
                        {"bundles", bundles_field(r.bundles)}});
  }

  if (verb == "repl-status") {
    if (tokens.size() != 1) {
      return err_response("repl-status takes no arguments");
    }
    const std::vector<ShardRouter::ReplPosition> pos = router_.repl_positions();
    std::vector<std::pair<std::string, std::string>> fields = {
        {"role", router_.follower() ? "follower" : "primary"},
        {"term", std::to_string(router_.term())},
        {"shards", std::to_string(pos.size())}};
    // How long ago this follower last heard any primary — election
    // candidates poll it to detect asymmetric partitions (a peer that
    // still hears a primary vetoes the election). Omitted when no
    // primary was ever heard: absence reads as "starved".
    const std::int64_t hb_age = router_.primary_contact_age_ms();
    if (router_.follower() && hb_age >= 0) {
      fields.emplace_back("hb_age_ms", std::to_string(hb_age));
    }
    for (std::size_t k = 0; k < pos.size(); ++k) {
      fields.emplace_back("s" + std::to_string(k),
                          std::to_string(pos[k].generation) + ":" +
                              std::to_string(pos[k].records) + ":" +
                              pos[k].chain_head);
    }
    return ok_response(fields);
  }

  if (verb == "repl-append") {
    if (tokens.size() != 6 && tokens.size() != 7) {
      return err_response(
          "usage: repl-append <shard> <generation> <term> <start-record> "
          "<hex-frames> [trace=<id>]");
    }
    const auto shard = parse_u64(tokens[1]);
    const auto gen = parse_u64(tokens[2]);
    const auto term = parse_u64(tokens[3]);
    const auto start = parse_u64(tokens[4]);
    if (!shard || !gen || !term || !start) {
      return err_response("repl-append: bad numeric argument");
    }
    const auto frames = hex_decode(tokens[5]);
    if (!frames) return err_response("repl-append: frames are not hex");
    if (tokens.size() == 7) {
      if (!tokens[6].starts_with("trace=")) {
        return err_response("repl-append: bad trailing token '" + tokens[6] +
                            "'");
      }
      // Join the primary's trace: this request's spans file under the id
      // of the mutation that produced the shipped frames.
      if (const auto tid =
              parse_hex_u64(std::string_view(tokens[6]).substr(6))) {
        obs::trace_adopt_id(*tid);
      }
    }
    const std::uint64_t seq = router_.replica_append(
        static_cast<std::size_t>(*shard), *gen, *start, *frames, *term);
    return ok_response({{"seq", std::to_string(seq)},
                        {"term", std::to_string(router_.term())}});
  }

  if (verb == "repl-snap") {
    if (tokens.size() != 5) {
      return err_response(
          "usage: repl-snap <shard> <generation> <term> <hex-snapshot>");
    }
    const auto shard = parse_u64(tokens[1]);
    const auto gen = parse_u64(tokens[2]);
    const auto term = parse_u64(tokens[3]);
    if (!shard || !gen || !term) {
      return err_response("repl-snap: bad numeric argument");
    }
    const auto frame = hex_decode(tokens[4]);
    if (!frame) return err_response("repl-snap: snapshot is not hex");
    router_.replica_snapshot(static_cast<std::size_t>(*shard), *gen, *frame,
                             *term);
    return ok_response({{"gen", std::to_string(*gen)}, {"seq", "0"}});
  }

  if (verb == "repl-truncate") {
    if (tokens.size() != 6) {
      return err_response(
          "usage: repl-truncate <shard> <generation> <term> <records> "
          "<chain-tag-hex>");
    }
    const auto shard = parse_u64(tokens[1]);
    const auto gen = parse_u64(tokens[2]);
    const auto term = parse_u64(tokens[3]);
    const auto records = parse_u64(tokens[4]);
    if (!shard || !gen || !term || !records) {
      return err_response("repl-truncate: bad numeric argument");
    }
    const std::uint64_t seq = router_.replica_truncate(
        static_cast<std::size_t>(*shard), *gen, *records, tokens[5], *term);
    return ok_response({{"seq", std::to_string(seq)}});
  }

  if (verb == "repl-hb") {
    if (tokens.size() != 2) return err_response("usage: repl-hb <term>");
    const auto term = parse_u64(tokens[1]);
    if (!term) return err_response("repl-hb: bad term");
    router_.note_primary_heartbeat(*term);
    return ok_response(
        {{"term", std::to_string(router_.term())},
         {"role", router_.follower() ? "follower" : "primary"}});
  }

  if (verb == "promote") {
    if (tokens.size() != 1) return err_response("promote takes no arguments");
    const ShardRouter::PromoteResult r = router_.promote();
    // A fresh primary must replicate before it acks: without the sender
    // the post_sync gate is a no-op and every mutation acks standalone,
    // silently voiding the armed majority-ack contract. Idempotent
    // re-promotes skip it — the sender is already running.
    if (!r.already && hooks_.post_promote) hooks_.post_promote();
    const ShardRouter::Status st = router_.status();
    return ok_response({{"role", "primary"},
                        {"already", r.already ? "1" : "0"},
                        {"term", std::to_string(r.term)},
                        {"period", std::to_string(st.period)},
                        {"wal_records", std::to_string(st.wal_records)}});
  }

  if (verb == "demote") {
    if (tokens.size() != 1) return err_response("demote takes no arguments");
    // Stop the replication sender FIRST: it releases any committer parked
    // in the ack gate, which demote() is about to join.
    if (hooks_.pre_demote) hooks_.pre_demote();
    const ShardRouter::PromoteResult r = router_.demote();
    // Back to follower: re-arm the failover watchdog, or the node would
    // silently stop voting in (and standing for) elections.
    if (!r.already && hooks_.post_demote) hooks_.post_demote();
    return ok_response({{"role", "follower"},
                        {"already", r.already ? "1" : "0"},
                        {"term", std::to_string(r.term)},
                        {"period", std::to_string(r.period)}});
  }

  if (verb == "health") {
    if (tokens.size() != 1) return err_response("health takes no arguments");
    const ShardRouter::HealthReport h = router_.health();
    // Verdict: `fail` when nothing can be acked any more (fail-stop or a
    // poisoned shard), `degraded` when the node serves but not fully (a
    // read-only follower, or a primary whose follower died and stopped
    // gating acks), `ok` otherwise. Reasons are comma-joined (values must
    // stay space-free for the k=v protocol).
    std::vector<std::string> reasons;
    for (std::size_t k = 0; k < h.poisoned.size(); ++k) {
      if (h.poisoned[k]) {
        reasons.push_back("shard" + std::to_string(k) + "-poisoned");
      }
    }
    if (h.fatal) reasons.push_back("fail-stop");
    const bool fail = !reasons.empty();
    if (h.follower) reasons.push_back("follower-read-only");
    if (h.fenced) reasons.push_back("fenced");
    std::size_t live = 0;
    std::uint64_t lag = 0;
    for (const auto& f : h.followers) {
      if (f.live) {
        ++live;
      } else {
        reasons.push_back("follower-dead:" + f.name);
      }
      lag += f.lag_records;
    }
    const char* verdict =
        fail ? "fail" : (reasons.empty() ? "ok" : "degraded");
    std::string poisoned, periods, queue_total;
    std::size_t queued = 0;
    for (std::size_t k = 0; k < h.poisoned.size(); ++k) {
      if (k > 0) {
        poisoned += ',';
        periods += ',';
      }
      poisoned += h.poisoned[k] ? '1' : '0';
      periods += std::to_string(h.periods[k]);
      queued += h.queue_depths[k];
    }
    std::string joined = "none";
    if (!reasons.empty()) {
      joined.clear();
      for (std::size_t i = 0; i < reasons.size(); ++i) {
        if (i > 0) joined += ',';
        joined += reasons[i];
      }
    }
    std::string watchdog = hooks_.watchdog_state ? hooks_.watchdog_state()
                                                 : std::string();
    if (watchdog.empty()) watchdog = "off";
    return ok_response(
        {{"verdict", verdict},
         {"role", h.follower ? "follower" : "primary"},
         {"term", std::to_string(h.term)},
         {"fenced", h.fenced ? "1" : "0"},
         {"watchdog", watchdog},
         {"shards", std::to_string(h.poisoned.size())},
         {"period", std::to_string(h.period)},
         {"periods", periods},
         {"poisoned", poisoned},
         {"queued", std::to_string(queued)},
         {"followers_live",
          std::to_string(live) + "/" + std::to_string(h.followers.size())},
         {"lag_records", std::to_string(lag)},
         {"reasons", joined}});
  }

  if (verb == "trace") {
    if (tokens.size() > 2) return err_response("usage: trace [max]");
    std::size_t max = 64;
    if (tokens.size() == 2) {
      const auto m = parse_u64(tokens[1]);
      if (!m) return err_response("bad trace count '" + tokens[1] + "'");
      max = static_cast<std::size_t>(*m);
    }
    // JSONL rides the one-line protocol as hex, exactly like key files and
    // ciphertexts do; GET /trace serves the same text raw.
    const std::string jsonl = obs::trace_jsonl(max);
    const std::size_t lines =
        static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
    return ok_response(
        {{"lines", std::to_string(lines)},
         {"jsonl", hex_encode(Bytes(jsonl.begin(), jsonl.end()))}});
  }

  if (verb == "encrypt") {
    if (tokens.size() != 2 && tokens.size() != 3) {
      return err_response("usage: encrypt <hex-payload> [shard]");
    }
    const auto payload = hex_decode(tokens[1]);
    if (!payload) return err_response("payload is not hex");
    std::size_t shard = 0;
    if (tokens.size() == 3) {
      const auto k = parse_u64(tokens[2]);
      if (!k) return err_response("bad shard index '" + tokens[2] + "'");
      shard = static_cast<std::size_t>(*k);
    }
    const ShardRouter::Sealed sealed = router_.encrypt(*payload, shard);
    // Encoded once: the feed line and the response carry the same hex.
    std::string ct = hex_encode(sealed.ct);
    if (hooks_.publish) {
      publish_content(shard, sealed.period,
                      "bcast encrypt shard=" + std::to_string(shard) +
                          " bytes=" + std::to_string(payload->size()) +
                          " ct=" + ct);
    }
    return ok_response({{"bytes", std::to_string(payload->size())},
                        {"shard", std::to_string(shard)},
                        {"ct", std::move(ct)}});
  }

  if (verb == "subscribe") {
    // The reactor intercepts `subscribe` before it reaches a worker —
    // landing here means the connection has no stream to upgrade (the
    // in-process simulator, or a front end without a feed hub).
    return err_response("subscribe requires a streaming client connection");
  }

  return err_response("unknown command '" + verb + "'");
}

// ---- Daemon --------------------------------------------------------------------

namespace {

std::atomic<int> g_wake_fd{-1};

void on_signal(int) {
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 1;
    // Best effort: a full pipe already means a wakeup is pending.
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "dfkyd: %s: %s\n", what.c_str(), std::strerror(errno));
  std::exit(1);
}

/// Replication link over the follower daemon's unix socket: one untagged
/// request line per roundtrip. Timeouts bound a hung follower — the
/// sender treats a timeout as a link failure and reconnects with backoff.
class SocketReplLink : public ReplLink {
 public:
  explicit SocketReplLink(client::Conn conn) : conn_(std::move(conn)) {
    const timeval tv{.tv_sec = kTimeoutMs / 1000, .tv_usec = 0};
    ::setsockopt(conn_.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  std::optional<std::string> roundtrip(const std::string& line) override {
    try {
      conn_.send(line);
      return conn_.recv(kTimeoutMs);
    } catch (const client::ConnError&) {
      return std::nullopt;  // peer gone, or a line over kMaxLineBytes
    }
  }

 private:
  static constexpr int kTimeoutMs = 30000;
  client::Conn conn_;
};

std::unique_ptr<ReplLink> connect_repl_socket(const std::string& path) {
  try {
    return std::make_unique<SocketReplLink>(client::Conn(path));
  } catch (const client::ConnError&) {
    return nullptr;
  }
}

/// Forwards everything to the real io, sleeping before each fsync_file.
/// Armed only via the DFKYD_TEST_FSYNC_STALL_US environment variable —
/// the e2e harness's deterministic "slow disk" (DESIGN.md Sect. 13.3).
class StallFileIo final : public FileIo {
 public:
  StallFileIo(FileIo& inner, std::uint64_t stall_us)
      : inner_(inner), stall_us_(stall_us) {}

  bool exists(const std::string& p) const override { return inner_.exists(p); }
  bool is_dir(const std::string& p) const override { return inner_.is_dir(p); }
  std::vector<std::string> list(const std::string& d) const override {
    return inner_.list(d);
  }
  Bytes read(const std::string& p) const override { return inner_.read(p); }
  Bytes read_range(const std::string& p, std::size_t off,
                   std::size_t len) const override {
    return inner_.read_range(p, off, len);
  }
  void write(const std::string& p, BytesView d) override { inner_.write(p, d); }
  void append(const std::string& p, BytesView d) override {
    inner_.append(p, d);
  }
  void truncate(const std::string& p, std::size_t s) override {
    inner_.truncate(p, s);
  }
  void rename(const std::string& f, const std::string& t) override {
    inner_.rename(f, t);
  }
  void remove(const std::string& p) override { inner_.remove(p); }
  void mkdir(const std::string& p) override { inner_.mkdir(p); }
  void fsync_file(const std::string& p) override {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    inner_.fsync_file(p);
  }
  void fsync_dir(const std::string& d) override { inner_.fsync_dir(d); }
  bool lock(const std::string& p, std::uint64_t* h) override {
    return inner_.lock(p, h);
  }
  void unlock(const std::string& p) override { inner_.unlock(p); }

 private:
  FileIo& inner_;
  std::uint64_t stall_us_;
};

std::unique_ptr<FileIo> make_stall_io(FileIo& inner) {
  const char* env = std::getenv("DFKYD_TEST_FSYNC_STALL_US");
  if (env == nullptr || *env == '\0') return nullptr;
  const auto us = parse_u64(env);
  if (!us || *us == 0) return nullptr;
  std::fprintf(stderr, "dfkyd: TEST fsync stall armed: %llu us per fsync\n",
               static_cast<unsigned long long>(*us));
  return std::make_unique<StallFileIo>(inner, *us);
}

}  // namespace

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      stall_io_(make_stall_io(real_io_)),
      io_(stall_io_ ? *stall_io_ : static_cast<FileIo&>(real_io_)) {
  std::vector<StateStore> stores;
  if (opts_.follower && is_shard_root(io_, opts_.store_dir)) {
    // A follower opens its shards WITHOUT open_shard_set's epoch
    // equalization: rolling a laggard forward writes local new-period
    // records, forking the stream it is about to receive from the
    // primary. Mixed epochs on a follower are resolved by the primary's
    // frames — or by promote(), if this replica is the survivor.
    const std::size_t n = count_shards(io_, opts_.store_dir);
    for (std::size_t i = 0; i < n; ++i) {
      stores.push_back(StateStore::open(
          io_, opts_.store_dir + "/" + shard_dir_name(i), opts_.store));
    }
  } else {
    ShardSetReport report;
    stores =
        open_deployment(io_, opts_.store_dir, rng_, opts_.store, &report);
    if (report.rolled_forward > 0) {
      std::fprintf(stderr,
                   "dfkyd: shard set recovered to epoch %llu "
                   "(%zu roll-forward(s))\n",
                   static_cast<unsigned long long>(report.epoch),
                   report.rolled_forward);
    }
  }
  router_.emplace(
      std::move(stores),
      [](std::size_t) { return std::make_unique<SystemRng>(); },
      [this] {
        // Committer/barrier thread: a sync failed, that shard's store is
        // poisoned. Fail-stop — ack nothing more, shut down, let a
        // restart recover.
        std::fprintf(stderr, "dfkyd: commit sync failed; shutting down\n");
        request_stop();
      },
      opts_.follower);
  feed_ = std::make_unique<FeedHub>();
  feed_->set_replay(
      [this](std::optional<std::uint64_t> from) { return feed_replay(from); });
  handler_.emplace(
      *router_,
      RequestHandler::Hooks{
          .pre_demote = [this] { stop_replication(); },
          .post_demote = [this] { start_watchdog(); },
          .post_promote = [this] { start_replication(); },
          .watchdog_state =
              [this] {
                std::lock_guard lk(watchdog_mu_);
                return watchdog_ ? std::string(FailoverWatchdog::state_name(
                                       watchdog_->state()))
                                 : std::string();
              },
          .publish =
              [this](std::string line, std::uint64_t period) {
                feed_->publish(std::move(line), period);
              }});
}

FeedReplay Daemon::feed_replay(std::optional<std::uint64_t> from) {
  // Runs on the reactor thread. Shared-lock every shard in index order
  // (the same order the epoch barrier locks them) for one consistent
  // cut of periods + archives.
  const std::size_t n = router_->shards();
  std::vector<std::shared_lock<StateMutex>> locks;
  locks.reserve(n);
  for (std::size_t k = 0; k < n; ++k) locks.emplace_back(router_->state_mu(k));
  FeedReplay rep;
  for (std::size_t k = 0; k < n; ++k) {
    const SecurityManager& mgr = router_->store(k).manager();
    rep.current = std::max(rep.current, mgr.period());
    // The shard with the shortest archive binds how far back the feed
    // can bridge; beyond that the client needs the signed catch-up
    // protocol.
    rep.oldest = std::max(rep.oldest, mgr.archive_oldest_period());
  }
  if (!from) {  // fresh subscribe: current broadcasts only
    rep.ok = true;
    return rep;
  }
  if (*from >= rep.current) {  // nothing missed
    rep.ok = true;
    return rep;
  }
  if (*from + 1 < rep.oldest) return rep;  // evicted: ok stays false
  for (std::uint64_t p = *from + 1; p <= rep.current; ++p) {
    std::string bundles;
    for (std::size_t k = 0; k < n; ++k) {
      const SecurityManager& mgr = router_->store(k).manager();
      for (const SignedResetBundle& b : mgr.reset_archive()) {
        if (b.reset.new_period != p) continue;
        Writer w;
        b.serialize(w, mgr.params().group);
        if (!bundles.empty()) bundles += ',';
        bundles += hex_encode(std::move(w).take());
      }
    }
    // A shard that never rolled through p (per-shard reactive resets)
    // contributes nothing; skip epochs no shard archived.
    if (bundles.empty()) continue;
    rep.lines.push_back("bcast new-period period=" + std::to_string(p) +
                        " bundles=" + bundles);
  }
  rep.ok = true;
  return rep;
}

Daemon::~Daemon() {
  close_fd(listen_fd_);
  close_fd(metrics_fd_);
}

void Daemon::request_stop() {
  stopping_.store(true);
  const int fd = wake_fd_.load();
  if (fd >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}

void Daemon::probe_peers() {
  // Armed startup: learn the cluster's epoch BEFORE serving a request. A
  // revived ex-primary finds the successor's higher term here, demotes in
  // place and starts fenced as a follower — it never accepts a write the
  // cluster would have to disown (DESIGN.md Sect. 14).
  for (const std::string& path : opts_.replicate_to) {
    const auto link = connect_repl_socket(path);
    if (!link) continue;
    const auto out = link->roundtrip("repl-status");
    if (!out) continue;
    const auto resp = parse_response(*out);
    if (!resp || !resp->ok) continue;
    const auto term_it = resp->fields.find("term");
    if (term_it == resp->fields.end()) continue;
    const auto pterm = parse_u64(term_it->second);
    if (!pterm || *pterm <= router_->term()) continue;
    // ANY peer on a higher term proves a successor was elected (terms only
    // advance through promotes) — a primary that merely adopted the number
    // and kept serving would be a zombie running under the successor's own
    // term, indistinguishable from it to every follower.
    if (!router_->follower()) {
      const auto role = resp->fields.find("role");
      std::fprintf(stderr,
                   "dfkyd: peer %s (%s) is at term %llu (ours %llu): "
                   "starting fenced until re-seeded\n",
                   path.c_str(),
                   role != resp->fields.end() ? role->second.c_str()
                                              : "unknown role",
                   static_cast<unsigned long long>(*pterm),
                   static_cast<unsigned long long>(router_->term()));
      router_->demote();
      router_->fence(*pterm);
    } else {
      router_->adopt_term(*pterm);
    }
  }
}

void Daemon::start_replication() {
  std::lock_guard lk(repl_mu_);
  if (repl_ || opts_.replicate_to.empty()) return;
  std::vector<FollowerSpec> specs;
  for (const std::string& path : opts_.replicate_to) {
    specs.push_back(
        FollowerSpec{path, [path] { return connect_repl_socket(path); }});
    std::printf("dfkyd: replicating to %s\n", path.c_str());
  }
  ReplOptions ropts;
  if (opts_.auto_failover) {
    ropts.lease_ms = opts_.lease_ms;
    ropts.hb_interval_ms = opts_.hb_interval_ms;
    ropts.on_stale_term = [this](std::uint64_t t) {
      // Self-STONITH: a follower is on a newer primary's term. Fence (all
      // further mutations NACK with StaleTermError) and exit nonzero; the
      // restarted process probes the peers and re-seeds as a follower.
      std::fprintf(stderr,
                   "dfkyd: fenced by newer term %llu; shutting down\n",
                   static_cast<unsigned long long>(t));
      router_->fence(t);
      fenced_exit_.store(true);
      request_stop();
    };
  }
  repl_ = std::make_shared<ReplicationSender>(*router_, std::move(specs),
                                              ropts);
  router_->attach_replication(repl_);
  std::fflush(stdout);
}

void Daemon::stop_replication() {
  std::lock_guard lk(repl_mu_);
  if (!repl_) return;
  // Detach first (later syncs skip the gate), then stop() — it releases
  // any committer parked in sync_shard before joining the ship threads.
  // Dropping our reference does NOT destroy a sender a committer is still
  // borrowing inside sync_shard: the gate's shared_ptr keeps it alive
  // until the borrower leaves (stop() made that wait momentary).
  router_->attach_replication(nullptr);
  repl_->stop();
  repl_.reset();
}

void Daemon::start_watchdog() {
  if (!opts_.auto_failover || opts_.replicate_to.empty()) return;
  std::lock_guard lk(watchdog_mu_);
  // A watchdog still scanning keeps its state; one that retired in
  // kPromoted (its node was primary until this demote) is replaced.
  if (watchdog_ &&
      watchdog_->state() != FailoverWatchdog::State::kPromoted) {
    return;
  }
  FailoverOptions fo;
  fo.self = opts_.socket_path;
  for (const std::string& path : opts_.replicate_to) {
    fo.peers.push_back(
        FollowerSpec{path, [path] { return connect_repl_socket(path); }});
  }
  fo.hb_timeout_ms = opts_.hb_timeout_ms;
  fo.election_min_ms = opts_.election_min_ms;
  fo.election_max_ms = opts_.election_max_ms;
  fo.seed = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
            std::random_device{}();
  fo.on_promoted = [this](std::uint64_t term) {
    std::printf("dfkyd: auto-failover: promoted to primary at term %llu\n",
                static_cast<unsigned long long>(term));
    std::fflush(stdout);
    start_replication();
  };
  watchdog_ = std::make_unique<FailoverWatchdog>(*router_, std::move(fo));
  std::printf("dfkyd: auto-failover watchdog armed (hb timeout %d ms)\n",
              opts_.hb_timeout_ms);
  std::fflush(stdout);
}

void Daemon::stop_watchdog() {
  std::lock_guard lk(watchdog_mu_);
  if (watchdog_) watchdog_->stop();
}

int Daemon::run() {
  int pipefd[2];
  if (::pipe(pipefd) != 0) die("pipe");
  int wake_read = pipefd[0];
  wake_fd_.store(pipefd[1]);
  g_wake_fd.store(pipefd[1]);

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) die("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "dfkyd: socket path too long: %s\n",
                 opts_.socket_path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  // A stale socket file from a SIGKILLed daemon would make bind fail; the
  // store LOCK is what actually guarantees one daemon per store.
  ::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    die("bind " + opts_.socket_path);
  }
  // Let the kernel clamp to net.core.somaxconn rather than hardcoding a
  // backlog far below it — a 10k-client reconnect storm overflows a
  // backlog of 64 and the overflow looks like silent connect stalls.
  const int backlog = opts_.backlog > 0 ? opts_.backlog : SOMAXCONN;
  if (::listen(listen_fd_, backlog) != 0) die("listen");

  // Serve with as many fds as the hard limit allows; connections are the
  // whole point of the reactor front end. Best effort — on failure the
  // EMFILE accept path sheds gracefully instead of spinning.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &nofile);
  }

  if (opts_.metrics_port >= 0) {
    metrics_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (metrics_fd_ < 0) die("metrics socket");
    const int one = 1;
    ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin.sin_port = htons(static_cast<std::uint16_t>(opts_.metrics_port));
    if (::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&sin), sizeof sin) !=
        0) {
      die("metrics bind");
    }
    if (::listen(metrics_fd_, 16) != 0) die("metrics listen");
    socklen_t len = sizeof sin;
    ::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&sin), &len);
    metrics_port_ = ntohs(sin.sin_port);
  }

  std::printf("dfkyd: serving %s on %s (pid %ld)\n", opts_.store_dir.c_str(),
              opts_.socket_path.c_str(), static_cast<long>(::getpid()));
  if (router_->shards() > 1) {
    std::printf("dfkyd: shard set with %zu shards\n", router_->shards());
  }
  if (opts_.follower) {
    std::printf("dfkyd: follower (read-only replica; `promote` to serve "
                "mutations)\n");
  }
  if (opts_.auto_failover && !opts_.replicate_to.empty()) {
    probe_peers();
  }
  if (!opts_.replicate_to.empty() && !router_->follower()) {
    start_replication();
  }
  if (router_->follower()) start_watchdog();
  if (metrics_port_ >= 0) {
    std::printf("dfkyd: metrics on http://127.0.0.1:%d/metrics\n",
                metrics_port_);
  }
  ReactorOptions ropts;
  ropts.listen_fd = listen_fd_;
  ropts.metrics_fd = metrics_fd_;
  ropts.wake_fd = wake_read;
  const unsigned hw = std::thread::hardware_concurrency();
  ropts.workers = opts_.workers > 0
                      ? static_cast<std::size_t>(opts_.workers)
                      : std::clamp<std::size_t>(hw, 4, 16);
  ropts.idle_timeout_ms = opts_.idle_timeout_ms;
  ropts.busy_queue_limit = opts_.busy_queue_limit;
  ropts.feed = feed_.get();
  std::printf("dfkyd: reactor: %zu workers, backlog %d%s\n", ropts.workers,
              backlog,
              opts_.idle_timeout_ms > 0 ? ", idle timeout armed" : "");
  std::printf("dfkyd: ready\n");
  std::fflush(stdout);

  {
    Reactor reactor(
        ropts,
        [this](const std::string& line, Reply reply) {
          handler_->handle(line, std::move(reply));
        },
        [this] { return router_->queue_depth_total(); },
        [this] { request_stop(); });
    // Serves until a signal, a `shutdown` request or a fail-stop makes
    // the wake pipe readable; returns with every request that reached
    // the pool answered and every client fd closed.
    reactor.run();
  }
  stopping_.store(true);

  // Shutdown sequence: the reactor already stopped accepting and drained
  // the connections (in-flight requests got their acks); now stop the
  // committers, final snapshot per shard, release the store locks,
  // remove the socket.
  close_fd(listen_fd_);
  close_fd(metrics_fd_);
  int rc = 0;
  // Watchdog first: after its thread joins, no promotion (and no sender
  // engagement) can race the teardown below.
  stop_watchdog();
  // Stop replication before the committers: stop() releases any committer
  // blocked in its post_sync ack gate, and detaching keeps later syncs
  // (final snapshot) from touching a dead sender.
  stop_replication();
  handler_.reset();
  const bool commit_failed = router_->fatal();
  router_->stop_commits();  // joins committers; poisoned shards skip the flush
  if (commit_failed || fenced_exit_.load()) {
    // Fail-stop shutdown: the last batch's (or barrier's) durability is
    // indeterminate — or this node was fenced by a newer term and its WAL
    // may carry a NACKed (forked) suffix. Skip the final snapshots (a
    // poisoned store refuses them anyway; snapshotting a fork would bake
    // it into a new generation) and exit nonzero so supervisors restart
    // us into recovery — roll-forward re-equalization, or a fenced
    // re-seed from the new primary.
    std::fprintf(stderr,
                 commit_failed
                     ? "dfkyd: exiting after commit failure; restart "
                       "recovers the durable prefix\n"
                     : "dfkyd: exiting fenced (a newer primary exists); "
                       "restart re-seeds from it\n");
    rc = 1;
  } else {
    try {
      router_->snapshot_all();
    } catch (const Error& e) {
      std::fprintf(stderr, "dfkyd: final snapshot failed: %s\n", e.what());
      rc = 1;
    }
  }
  router_.reset();  // releases every shard's LOCK file
  ::unlink(opts_.socket_path.c_str());
  g_wake_fd.store(-1);
  close_fd(wake_read);
  const int wfd = wake_fd_.exchange(-1);
  if (wfd >= 0) ::close(wfd);
  std::printf("dfkyd: shutdown complete%s\n",
              rc == 0 ? "" : " (after commit failure)");
  std::fflush(stdout);
  return rc;
}

}  // namespace dfky::daemon
