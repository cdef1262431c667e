#include "daemon/repl.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>

#include "daemon/protocol.h"
#include "daemon/shard.h"
#include "obs/metrics.h"

namespace dfky::daemon {

namespace {

std::uint32_t frame_be32(BytesView raw, std::size_t off) {
  return (static_cast<std::uint32_t>(raw[off]) << 24) |
         (static_cast<std::uint32_t>(raw[off + 1]) << 16) |
         (static_cast<std::uint32_t>(raw[off + 2]) << 8) |
         static_cast<std::uint32_t>(raw[off + 3]);
}

/// Splits a frames blob into whole-record chunks of at most `max_bytes`
/// (a chunk always holds at least one record). Returns {offset, records}
/// chunk boundaries; the blob is trusted (it came from our own WAL).
struct FrameChunk {
  std::size_t begin = 0, end = 0;
  std::uint64_t records = 0;
};

std::vector<FrameChunk> split_frames(BytesView frames, std::size_t max_bytes) {
  std::vector<FrameChunk> out;
  FrameChunk cur;
  std::size_t off = 0;
  while (off < frames.size()) {
    const std::size_t len = frame_be32(frames, off);
    const std::size_t end = off + kWalFrameHeaderBytes + len;
    if (cur.records > 0 && end - cur.begin > max_bytes) {
      cur.end = off;
      out.push_back(cur);
      cur = FrameChunk{off, off, 0};
    }
    ++cur.records;
    off = end;
  }
  if (cur.records > 0) {
    cur.end = off;
    out.push_back(cur);
  }
  return out;
}

std::optional<std::uint64_t> field_u64(const Response& r, const std::string& k) {
  const auto it = r.fields.find(k);
  if (it == r.fields.end()) return std::nullopt;
  return parse_u64(it->second);
}

/// A follower's `stale-term term=<N> (...)` NACK -> N; nullopt for every
/// other error. The prefix is part of the protocol (DESIGN.md Sect. 14):
/// it is how a fenced ex-primary learns the term that fenced it.
std::optional<std::uint64_t> parse_stale_term(const std::string& error) {
  constexpr std::string_view kPrefix = "stale-term term=";
  if (error.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  std::size_t end = kPrefix.size();
  while (end < error.size() && error[end] >= '0' && error[end] <= '9') ++end;
  return parse_u64(std::string_view(error).substr(kPrefix.size(),
                                                  end - kPrefix.size()));
}

std::string trace_hex(std::uint64_t id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[id & 0xf];
    id >>= 4;
  }
  return out;
}

}  // namespace

ReplicationSender::ReplicationSender(ShardRouter& router,
                                     std::vector<FollowerSpec> followers,
                                     ReplOptions opts)
    : router_(router), opts_(opts), term_(router.term()) {
  for (FollowerSpec& spec : followers) {
    auto f = std::make_unique<Follower>();
    f->spec = std::move(spec);
    f->gen.assign(router_.shards(), 0);
    f->acked.assign(router_.shards(), 0);
    // Lease grace starts NOW, not when the shipping thread first runs: an
    // epoch-zero last_contact would read as an expired lease to a sync that
    // beats the thread to its first statement.
    f->last_contact = std::chrono::steady_clock::now();
    followers_.push_back(std::move(f));
  }
  for (auto& f : followers_) {
    f->thread = std::thread([this, fp = f.get()] { follower_loop(*fp); });
  }
}

ReplicationSender::~ReplicationSender() { stop(); }

void ReplicationSender::stop() {
  {
    std::lock_guard lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  ack_cv_.notify_all();
  for (auto& f : followers_) {
    if (f->thread.joinable()) f->thread.join();
  }
}

bool ReplicationSender::stopping() const {
  std::lock_guard lk(mu_);
  return stop_;
}

void ReplicationSender::set_live(Follower& f, bool live) {
  {
    std::lock_guard lk(mu_);
    f.live = live;
  }
  // Dead followers stop gating acks; waiters must re-evaluate.
  ack_cv_.notify_all();
  obs::gauge("dfkyd_repl_follower_live", {{"follower", f.spec.name}})
      .set(live ? 1 : 0);
}

void ReplicationSender::note_contact(Follower& f) {
  {
    std::lock_guard lk(mu_);
    f.last_contact = std::chrono::steady_clock::now();
  }
  ack_cv_.notify_all();  // the lease just got fresher
}

void ReplicationSender::note_nack(const Follower& f,
                                  const std::string& error) {
  const auto newer = parse_stale_term(error);
  if (!newer) return;
  // Keep the largest term any follower reported, then signal exactly once:
  // every armed ack from here on is refused (sync_shard throws), and the
  // owner gets one shot at shutting the primary down.
  std::uint64_t cur = stale_term_value_.load();
  while (*newer > cur &&
         !stale_term_value_.compare_exchange_weak(cur, *newer)) {
  }
  obs::counter("dfkyd_repl_stale_terms_total", {{"follower", f.spec.name}})
      .inc();
  const bool first = !stale_term_seen_.exchange(true);
  ack_cv_.notify_all();
  if (first && opts_.on_stale_term) {
    opts_.on_stale_term(stale_term_value_.load());
  }
}

bool ReplicationSender::lease_expired_locked(
    std::chrono::steady_clock::time_point now) const {
  const auto lease = std::chrono::milliseconds(opts_.lease_ms);
  for (const auto& f : followers_) {
    if (now - f->last_contact < lease) return false;
  }
  return true;
}

void ReplicationSender::publish_lag(const std::string& follower, std::size_t k,
                                    std::uint64_t lag_frames,
                                    std::uint64_t lag_bytes,
                                    std::uint64_t acked) const {
  const obs::Labels labels = {{"shard", std::to_string(k)},
                              {"follower", follower}};
  obs::gauge("dfkyd_repl_lag_frames", labels)
      .set(static_cast<std::int64_t>(lag_frames));
  obs::gauge("dfkyd_repl_lag_bytes", labels)
      .set(static_cast<std::int64_t>(lag_bytes));
  obs::gauge("dfkyd_repl_acked_seq", labels)
      .set(static_cast<std::int64_t>(acked));
}

bool ReplicationSender::establish(Follower& f) {
  f.link = f.spec.connect ? f.spec.connect() : nullptr;
  if (!f.link) return false;
  const auto line = f.link->roundtrip("repl-status");
  if (!line) {
    f.link.reset();
    return false;
  }
  const auto resp = parse_response(*line);
  if (!resp) {
    f.link.reset();
    return false;
  }
  if (!resp->ok) {
    note_nack(f, resp->error);
    f.link.reset();
    return false;
  }
  // Term scrutiny before any byte ships — and before the contact stamp. A
  // peer carrying a newer term means WE are the stale side (a failover
  // happened behind our back): signal it exactly like a stale-term NACK. A
  // peer answering as a primary at our term or below is a same-epoch split
  // (manual double promote) — never feed it; keep retrying until one side
  // demotes. Neither answer is lease-qualifying contact: counting a
  // dueling primary's reconnect probes would keep this side's lease fresh
  // forever, masking the split as a silent ack stall instead of letting
  // the lease expire and fail-stop it.
  const auto pterm = field_u64(*resp, "term");
  if (pterm && *pterm > term_) {
    note_nack(f, "stale-term term=" + std::to_string(*pterm) +
                     " (peer " + f.spec.name + " is ahead of us)");
    f.link.reset();
    return false;
  }
  const auto role = resp->fields.find("role");
  if (role != resp->fields.end() && role->second == "primary") {
    f.link.reset();
    return false;
  }
  note_contact(f);
  {
    std::lock_guard lk(mu_);
    f.chain.assign(router_.shards(), std::string());
    for (std::size_t k = 0; k < router_.shards(); ++k) {
      // s<k> = "<generation>:<records>[:<chain-head-hex>]" (the chain head
      // is new in Sect. 14; absent from pre-failover followers).
      // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
      const auto it = resp->fields.find("s" + std::to_string(k));
#pragma GCC diagnostic pop
      f.gen[k] = 0;
      f.acked[k] = 0;
      if (it == resp->fields.end()) continue;
      const std::size_t colon = it->second.find(':');
      if (colon == std::string::npos) continue;
      const std::size_t colon2 = it->second.find(':', colon + 1);
      const auto g = parse_u64(it->second.substr(0, colon));
      const auto s = parse_u64(
          it->second.substr(colon + 1, colon2 == std::string::npos
                                           ? std::string::npos
                                           : colon2 - colon - 1));
      if (g && s) {
        f.gen[k] = *g;
        f.acked[k] = *s;
        if (colon2 != std::string::npos) {
          f.chain[k] = it->second.substr(colon2 + 1);
        }
      }
    }
  }
  set_live(f, true);
  obs::counter("dfkyd_repl_connects_total", {{"follower", f.spec.name}})
      .inc();
  return true;
}

bool ReplicationSender::ship_shard(Follower& f, std::size_t k, bool* shipped) {
  std::uint64_t fgen, fseq;
  std::string fchain;
  {
    std::lock_guard lk(mu_);
    fgen = f.gen[k];
    fseq = f.acked[k];
    fchain = f.chain[k];
  }
  const std::uint64_t term = term_;
  // Read the shard's durable head (and whatever needs shipping) under the
  // shard's shared state lock; committers exclude us while they batch.
  std::uint64_t pgen = 0, precs = 0;
  bool diverged = false;
  Bytes snap;
  WalShipment ship;
  {
    std::shared_lock state(router_.state_mu(k));
    const StateStore& st = router_.store(k);
    pgen = st.generation();
    precs = st.wal_records();
    if (fgen == pgen && !fchain.empty()) {
      // Unverified chain head from repl-status: a forked suffix (the
      // follower was a primary that committed un-acked records before
      // fencing) either sticks out past our head or disagrees with our
      // chain at its own position. Equal heads verify the whole prefix.
      diverged = fseq > precs ||
                 st.chain_tag_hex_at(std::min(fseq, precs)) != fchain;
    }
    if (!diverged) {
      if (fgen != pgen) {
        snap = st.read_snapshot_frame();
      } else if (fseq < precs) {
        ship = st.read_frames_from(fseq, 0);
      }
    }
  }

  if (diverged) {
    if (!repair_divergence(f, k, pgen, precs, fseq)) return false;
    *shipped = true;  // the truncate was forward progress; re-enter to ship
    return true;
  }
  if (fgen == pgen && !fchain.empty()) {
    // Verified: matching chain tag at the follower's head, so its WAL is a
    // byte-identical prefix of ours. Stop re-checking on every pass.
    std::lock_guard lk(mu_);
    f.chain[k].clear();
  }

  if (fgen != pgen) {
    // A generation behind (or, after a primary restart from backup, ahead —
    // the snapshot install is idempotent and re-anchors either way).
    publish_lag(f.spec.name, k, precs, snap.size(), 0);
    const std::string line = "repl-snap " + std::to_string(k) + " " +
                             std::to_string(pgen) + " " +
                             std::to_string(term) + " " + hex_encode(snap);
    const auto out = f.link->roundtrip(line);
    if (!out) return false;
    const auto resp = parse_response(*out);
    if (!resp) return false;
    if (!resp->ok) {
      note_nack(f, resp->error);
      return false;
    }
    note_contact(f);
    {
      std::lock_guard lk(mu_);
      f.gen[k] = pgen;
      f.acked[k] = 0;
    }
    ack_cv_.notify_all();
    *shipped = true;
    obs::counter("dfkyd_repl_snapshots_total", {{"follower", f.spec.name}})
        .inc();
    return true;
  }

  if (ship.frames.empty()) {
    publish_lag(f.spec.name, k, 0, 0, fseq);
    return true;
  }
  publish_lag(f.spec.name, k, precs - fseq, ship.frames.size(), fseq);
  std::uint64_t next = ship.start_record;
  for (const FrameChunk& c : split_frames(ship.frames, opts_.max_batch_bytes)) {
    const BytesView chunk(ship.frames.data() + c.begin, c.end - c.begin);
    std::string line = "repl-append " + std::to_string(k) + " " +
                       std::to_string(pgen) + " " + std::to_string(term) +
                       " " + std::to_string(next) + " " + hex_encode(chunk);
    // Trace propagation (DESIGN.md Sect. 13): the last mutation's trace id
    // rides along so the follower's apply span joins the primary's trace.
    if (const std::uint64_t tid = router_.last_trace_id(k)) {
      line += " trace=";
      line += trace_hex(tid);
    }
    const auto out = f.link->roundtrip(line);
    if (!out) return false;
    const auto resp = parse_response(*out);
    if (!resp) return false;
    if (!resp->ok) {
      note_nack(f, resp->error);
      return false;
    }
    note_contact(f);
    const auto seq = field_u64(*resp, "seq");
    // No forward progress from a healthy-looking follower means the
    // streams disagree; drop the link and resync from repl-status.
    if (!seq || *seq < next + c.records) return false;
    next += c.records;
    {
      std::lock_guard lk(mu_);
      f.gen[k] = pgen;
      f.acked[k] = std::max(f.acked[k], *seq);
    }
    ack_cv_.notify_all();
    *shipped = true;
    obs::counter("dfkyd_repl_shipped_frames_total",
                 {{"shard", std::to_string(k)}, {"follower", f.spec.name}})
        .inc(c.records);
  }
  publish_lag(f.spec.name, k, 0, 0, next);
  return true;
}

bool ReplicationSender::repair_divergence(Follower& f, std::size_t k,
                                          std::uint64_t pgen,
                                          std::uint64_t precs,
                                          std::uint64_t fseq) {
  obs::counter("dfkyd_repl_divergences_total",
               {{"shard", std::to_string(k)}, {"follower", f.spec.name}})
      .inc();
  // Walk downward from the last position both sides could share, offering
  // OUR chain tag at each; the follower truncates at the first one that
  // matches its own chain (tag p is the whole prefix [0,p), so a match
  // proves everything below it too — one accepted truncate finishes the
  // repair). The walk is monotone and bounded by min(precs, fseq) <= the
  // un-acked suffix length in practice, since acked records are shared.
  std::uint64_t p = std::min(precs, fseq);
  for (;;) {
    if (stopping()) return false;
    std::string tag;
    {
      std::shared_lock state(router_.state_mu(k));
      tag = router_.store(k).chain_tag_hex_at(p);
    }
    const std::string line = "repl-truncate " + std::to_string(k) + " " +
                             std::to_string(pgen) + " " + std::to_string(term_) +
                             " " + std::to_string(p) + " " + tag;
    const auto out = f.link->roundtrip(line);
    if (!out) return false;
    const auto resp = parse_response(*out);
    if (!resp) return false;
    if (resp->ok) {
      note_contact(f);
      std::lock_guard lk(mu_);
      f.gen[k] = pgen;
      f.acked[k] = p;
      f.chain[k].clear();  // shared prefix re-established and verified
      return true;
    }
    note_nack(f, resp->error);
    if (parse_stale_term(resp->error)) return false;
    if (p == 0) return false;  // no shared prefix at all: resync from status
    --p;
  }
}

void ReplicationSender::follower_loop(Follower& f) {
  int backoff = opts_.backoff_min_ms;
  auto last_hb = std::chrono::steady_clock::now();
  // A deposed sender retires: once any follower reports a newer term this
  // whole tenure is over — nothing it could ship is legitimate, and verbs
  // stamped with term_ would only be refused anyway.
  while (!stopping() && !stale_term_seen_.load()) {
    if (!f.link) {
      if (!establish(f)) {
        set_live(f, false);
        std::unique_lock lk(mu_);
        work_cv_.wait_for(lk, std::chrono::milliseconds(backoff),
                          [&] { return stop_; });
        backoff = std::min(backoff * 2, opts_.backoff_max_ms);
        continue;
      }
      backoff = opts_.backoff_min_ms;
    }
    bool shipped = false;
    bool link_ok = true;
    try {
      for (std::size_t k = 0; k < router_.shards() && link_ok; ++k) {
        link_ok = ship_shard(f, k, &shipped);
      }
    } catch (const Error&) {
      // A fail-stopped shard can no longer be read (the store poisoned
      // itself mid-mutation). Nothing is shippable and the daemon is
      // already shutting down; doze instead of tearing down the process
      // from a shipping thread.
      shipped = false;
    }
    if (!link_ok) {
      f.link.reset();
      set_live(f, false);
      continue;
    }
    if (!shipped) {
      // Caught up and idle: heartbeat so follower watchdogs know their
      // primary is alive and our lease stays fresh with no mutations
      // flowing. The follower NACKs stale-term if it moved to a newer
      // epoch behind our back — exactly like a shipment would.
      const auto now = std::chrono::steady_clock::now();
      if (opts_.hb_interval_ms > 0 &&
          now - last_hb >= std::chrono::milliseconds(opts_.hb_interval_ms)) {
        last_hb = now;
        const auto out =
            f.link->roundtrip("repl-hb " + std::to_string(term_));
        const auto resp = out ? parse_response(*out) : std::nullopt;
        if (!resp) {
          f.link.reset();
          set_live(f, false);
          continue;
        }
        if (!resp->ok) {
          note_nack(f, resp->error);
          f.link.reset();
          set_live(f, false);
          continue;
        }
        note_contact(f);
        obs::counter("dfkyd_repl_heartbeats_total", {{"follower", f.spec.name}})
            .inc();
      }
      // Doze until a committer syncs new work (post_sync wakes us via
      // sync_shard) or a timeout re-checks the head.
      std::unique_lock lk(mu_);
      work_cv_.wait_for(lk, std::chrono::milliseconds(20),
                        [&] { return stop_; });
    }
  }
}

std::string ReplicationSender::sync_shard(std::size_t shard) {
  std::uint64_t pgen = 0, head = 0;
  {
    std::shared_lock state(router_.state_mu(shard));
    const StateStore& st = router_.store(shard);
    pgen = st.generation();
    head = st.wal_records();
  }
  std::unique_lock lk(mu_);
  work_cv_.notify_all();
  const auto holds_head = [&](const Follower& f) {
    if (f.gen[shard] > pgen) return true;  // rotated past the captured head
    return f.gen[shard] == pgen && f.acked[shard] >= head;
  };
  const auto holder_names = [&] {
    std::string names;
    for (const auto& f : followers_) {
      if (!holds_head(*f)) continue;
      if (!names.empty()) names += ',';
      names += f->spec.name;
    }
    return names;
  };
  if (opts_.lease_ms <= 0) {
    // Unarmed (PR 6 semantics): every live follower must hold the head;
    // no live follower means a degraded standalone ack.
    ack_cv_.wait(lk, [&] {
      if (stop_) return true;
      for (const auto& f : followers_) {
        if (f->live && !holds_head(*f)) return false;
      }
      return true;
    });
    return holder_names();
  }
  // ARMED: an ack needs (a) every live follower caught up AND (b) a cluster
  // majority holding the head — acked-but-dead followers count, their copy
  // is durable. With N followers the cluster is N+1 nodes, majority is
  // floor((N+1)/2)+1 nodes = ceil((N+1)/2) - 1 + 1 ... i.e. this primary
  // plus ceil(N/2) = (N+1)/2 followers (integer division). An election
  // quorum is a majority of the N followers with the max-records winner,
  // so any elected successor holds every record acked here.
  const std::size_t required = (followers_.size() + 1) / 2;
  for (;;) {
    if (stop_) return holder_names();
    if (stale_term_seen_.load()) {
      throw StaleTermError(
          "stale-term term=" + std::to_string(stale_term_value_.load()) +
          " (replication gate: a newer primary fenced this node)");
    }
    const auto now = std::chrono::steady_clock::now();
    if (lease_expired_locked(now)) {
      std::string ages;
      for (const auto& f : followers_) {
        if (!ages.empty()) ages += ',';
        ages += f->spec.name + (f->live ? "=" : "[dead]=") +
                std::to_string(std::chrono::duration_cast<
                                   std::chrono::milliseconds>(
                                   now - f->last_contact)
                                   .count()) +
                "ms";
      }
      throw StaleTermError(
          "stale-term term=" + std::to_string(router_.term()) +
          " (replication lease lost: no follower heard from within " +
          std::to_string(opts_.lease_ms) + "ms [" + ages +
          "]; a successor may be elected — refusing the ack)");
    }
    bool live_ok = true;
    std::size_t holders = 0;
    for (const auto& f : followers_) {
      if (holds_head(*f)) {
        ++holders;
      } else if (f->live) {
        live_ok = false;
      }
    }
    if (live_ok && holders >= required) return holder_names();
    // Bounded waits so the lease re-checks even with no ack traffic.
    ack_cv_.wait_for(lk, std::chrono::milliseconds(5));
  }
}

void ReplicationSender::sync_all() {
  for (std::size_t k = 0; k < router_.shards(); ++k) sync_shard(k);
}

std::vector<ReplicationSender::FollowerStatus> ReplicationSender::status()
    const {
  std::lock_guard lk(mu_);
  std::vector<FollowerStatus> out;
  out.reserve(followers_.size());
  for (const auto& f : followers_) {
    out.push_back(FollowerStatus{f->spec.name, f->live, f->gen, f->acked});
  }
  return out;
}

}  // namespace dfky::daemon
