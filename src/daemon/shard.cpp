#include "daemon/shard.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <shared_mutex>

#include "core/content.h"
#include "core/keyfile.h"
#include "daemon/repl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/chacha_rng.h"
#include "serial/codec.h"

namespace dfky::daemon {

namespace {

obs::Labels shard_labels(std::size_t shard) {
  return {{"shard", std::to_string(shard)}};
}

Bytes serialize_bundle(const SignedResetBundle& bundle, const Group& group) {
  Writer w;
  bundle.serialize(w, group);
  return std::move(w).take();
}

}  // namespace

ShardRouter::ShardRouter(std::vector<StateStore> stores,
                         const RngFactory& make_rng,
                         std::function<void()> on_fatal, bool follower)
    : on_fatal_(std::move(on_fatal)), follower_(follower) {
  if (stores.empty()) throw ContractError("shard router: no shards");
  shards_.reserve(stores.size());
  for (StateStore& s : stores) {
    shards_.push_back(std::make_unique<Shard>(std::move(s)));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    sh.rng = make_rng(i);
    sh.note_state();
    const std::string k = std::to_string(i);
    sh.add_users = &obs::counter("dfkyd_shard_mutations_total",
                                 {{"shard", k}, {"verb", "add-user"}});
    sh.revokes = &obs::counter("dfkyd_shard_mutations_total",
                               {{"shard", k}, {"verb", "revoke"}});
  }
  // The node's failover term is the max across shard TERM files: a crash
  // between adopt_term's per-shard writes leaves some shards behind, and
  // max-recovery re-equalizes them upward (terms only move forward).
  std::uint64_t term = 0;
  for (const auto& sh : shards_) term = std::max(term, sh->store.term());
  term_.store(term);
  // Round-robin placement resumes where the set's user count leaves it,
  // so a reopened set (a restart, or one offline `dfky_cli add` per
  // process) keeps filling the shards evenly instead of from shard 0.
  std::uint64_t users = 0;
  for (const auto& sh : shards_) users += sh->store.manager().users().size();
  next_add_.store(users);
  // A follower runs no committers: its stores must stay in
  // fsync-per-mutation mode so replica ingest appends land directly.
  if (!follower) start_committers();
  obs::gauge("dfkyd_role", {{"role", "primary"}}).set(follower ? 0 : 1);
  obs::gauge("dfkyd_role", {{"role", "follower"}}).set(follower ? 1 : 0);
  obs::gauge("dfky_repl_term").set(term);
  // Every shard of a set holds the same SystemParams (create_shard_set
  // takes one), so one g/g' pair serves the set.
  builder_ = std::thread(
      [this, sp = shards_[0]->store.manager().params()] { build_tables(sp); });
}

void ShardRouter::start_committers() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    // Exclusive state lock: promote() runs this while readers (status)
    // probe sh.commits under the shared lock.
    std::unique_lock state(sh.state_mu);
    sh.commits.store(std::make_shared<GroupCommit>(
        sh.store, sh.state_mu, [this] { fail_stop(); }, shard_labels(i),
        [this, i] {
          // Replication ack gate: with a sender attached, a batch is acked
          // only once every live follower holds it. A throw here (lease
          // lost, stale term) NACKs the batch and fail-stops the queue.
          // The shared_ptr keeps the sender alive through sync_shard even
          // if a concurrent demote detaches and drops it mid-wait.
          if (const std::shared_ptr<ReplicationSender> r = replication()) {
            return r->sync_shard(i);
          }
          return std::string();
        }));
  }
}

void ShardRouter::ensure_primary(const char* verb) const {
  if (fenced_.load()) {
    obs::counter("dfky_fenced_writes_total").inc();
    throw StaleTermError("stale-term term=" + std::to_string(term_.load()) +
                         " (" + verb +
                         ": this node was fenced by a newer primary and is "
                         "re-seeding)");
  }
  if (follower_.load()) {
    throw ContractError(std::string(verb) +
                        ": this daemon is a read-only replica (promote it "
                        "to accept mutations)");
  }
}

void ShardRouter::adopt_term(std::uint64_t t) {
  std::lock_guard term_lk(term_mu_);
  if (t <= term_.load()) return;
  // Persist before publishing: a crash mid-loop leaves some shards behind,
  // and the constructor's max-recovery absorbs that.
  for (auto& sh : shards_) sh->store.set_term(t);
  term_.store(t);
  obs::gauge("dfky_repl_term").set(t);
  obs::event({.name = "term_adopt",
              .detail = "",
              .value = static_cast<std::int64_t>(t)});
}

void ShardRouter::fence(std::uint64_t observed_term) {
  adopt_term(observed_term);
  if (fenced_.exchange(true)) return;
  obs::event({.name = "fence",
              .detail = "stale-term",
              .value = static_cast<std::int64_t>(term_.load())});
}

void ShardRouter::note_term(Shard& sh, std::uint64_t term, const char* verb) {
  (void)sh;
  const std::uint64_t ours = term_.load();
  if (term < ours) {
    throw StaleTermError("stale-term term=" + std::to_string(ours) + " (" +
                         verb + " carries term " + std::to_string(term) +
                         " — sender is a fenced ex-primary)");
  }
  if (term > ours) adopt_term(term);
}

void ShardRouter::stamp_trace(Shard& sh, const obs::TraceContext* trace) {
  if (trace != nullptr) {
    sh.last_trace_id.store(trace->id, std::memory_order_relaxed);
  }
}

void ShardRouter::stamp_primary_contact() {
  primary_contact_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
}

std::int64_t ShardRouter::primary_contact_age_ms() const {
  const std::int64_t at = primary_contact_ns_.load(std::memory_order_relaxed);
  if (at < 0) return -1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return std::max<std::int64_t>(0, (now - at) / 1'000'000);
}

void ShardRouter::note_primary_heartbeat(std::uint64_t term) {
  const std::uint64_t ours = term_.load();
  if (!follower_.load()) {
    if (term > ours) {
      // A real primary at a newer term is pinging us while we still think
      // we are one: we are the zombie. Fence immediately — mutations start
      // refusing before our own sender even hears a stale-term NACK.
      fence(term);
      return;
    }
    if (term < ours) {
      throw StaleTermError("stale-term term=" + std::to_string(ours) +
                           " (repl-hb from a fenced ex-primary)");
    }
    throw ContractError(
        "repl-hb: split-brain — receiver is a primary at the same term");
  }
  if (term < ours) {
    throw StaleTermError("stale-term term=" + std::to_string(ours) +
                         " (repl-hb carries term " + std::to_string(term) +
                         " — sender is a fenced ex-primary)");
  }
  if (term > ours) adopt_term(term);
  stamp_primary_contact();
}

ShardRouter::~ShardRouter() {
  {
    std::lock_guard lk(build_mu_);
    build_stop_ = true;
  }
  build_cv_.notify_all();
  builder_.join();  // waits out at most one table row
  stop_commits();
}

void ShardRouter::queue_tables(std::size_t shard) {
  {
    std::lock_guard lk(build_mu_);
    if (std::find(build_queue_.begin(), build_queue_.end(), shard) !=
        build_queue_.end()) {
      return;
    }
    build_queue_.push_back(shard);
  }
  build_cv_.notify_one();
}

void ShardRouter::build_tables(const SystemParams& sp) {
  const auto stop = [this] { return build_stop_.load(); };
  // First job: the generator pair, outside every lock, so neither start
  // nor a mutation waits for it; until it is installed a slot costs two
  // Group::pows. Checked for shutdown between rows like the tables below.
  GeneratorTables gens;
  try {
    gens = GeneratorTables::build(sp, stop);
  } catch (const BuildStopped&) {
    return;
  }
  for (auto& sh : shards_) {
    std::unique_lock state(sh->state_mu);
    const SystemParams& own = sh->store.manager().params();
    if (own.group == sp.group && own.g == sp.g && own.g2 == sp.g2) {
      sh->store.set_generator_tables(gens);
    }
  }
  std::unique_lock lk(build_mu_);
  for (;;) {
    build_cv_.wait(lk, [this] { return build_stop_ || !build_queue_.empty(); });
    if (build_stop_) return;
    Shard& sh = *shards_[build_queue_.front()];
    build_queue_.pop_front();
    lk.unlock();
    const std::shared_ptr<const Encryptor> from = sh.cached_encryptor();
    if (from && !from->complete()) {
      // Checks for shutdown between table rows and drops an unfinished
      // build, so neither ~ShardRouter nor a one-shot process waits for a
      // key's tables.
      auto next =
          std::make_shared<const Encryptor>(from->with_tables(stop, gens));
      // Fails if an encrypt swapped in a newer key's Encryptor meanwhile;
      // that encrypt queued the shard again.
      if (next->complete()) sh.swap_encryptor(from, std::move(next));
    }
    lk.lock();
  }
}

void ShardRouter::fail_stop() {
  bool expected = false;
  if (fatal_.compare_exchange_strong(expected, true) && on_fatal_) {
    on_fatal_();
  }
}

void ShardRouter::add_user(Then<AddedUser> done) {
  ensure_primary("add-user");
  const std::size_t k = static_cast<std::size_t>(
      next_add_.fetch_add(1, std::memory_order_relaxed) % shards_.size());
  Shard& sh = *shards_[k];
  // Routing is done; the queue wait starts at submission.
  obs::trace_mark(obs::SpanKind::kRoute);
  stamp_trace(sh, obs::current_trace());
  const std::shared_ptr<GroupCommit> commits = sh.commits.load();
  if (!commits) {  // demoted since the entry check
    ensure_primary("add-user");
    throw ContractError("add-user: shard committer is gone (demoting)");
  }
  // Filled by the op, read by the completion; both run on the committer.
  auto out = std::make_shared<AddedUser>();
  out->shard = k;
  commits->submit(
      [this, &sh, k, out] {
        std::lock_guard rng_lk(sh.rng_mu);
        const SecurityManager::AddedUser added = sh.store.add_user(*sh.rng);
        out->global_id = global_of(added.id, k);
        out->key_file = encode_key_file(sh.store.manager().params(),
                                        sh.store.manager().verification_key(),
                                        added.key);
      },
      [&sh, out, done = std::move(done)](std::exception_ptr err) {
        if (err) return done({}, err);
        sh.add_users->inc();
        done(std::move(*out), nullptr);
      });
}

void ShardRouter::revoke(std::span<const std::uint64_t> global_ids,
                         Then<RevokeResult> done) {
  ensure_primary("revoke");
  auto chain = std::make_shared<RevokeChain>();
  // Partition by shard, preserving the caller's order within a shard.
  chain->by_shard.resize(shards_.size());
  for (const std::uint64_t id : global_ids) {
    chain->by_shard[shard_of(id)].push_back(local_of(id));
  }
  chain->trace = obs::current_trace();
  chain->done = std::move(done);
  obs::trace_mark(obs::SpanKind::kRoute);
  revoke_next(chain);
}

void ShardRouter::revoke_next(const std::shared_ptr<RevokeChain>& chain) {
  while (chain->next < shards_.size() &&
         chain->by_shard[chain->next].empty()) {
    ++chain->next;
  }
  if (chain->next == shards_.size()) {
    // Every shard committed its part. The answer's period and saturation
    // come from each shard's last committed state, so this takes no
    // shard's lock (a committer would otherwise wait on another's batch).
    RevokeResult& out = chain->out;
    for (const auto& sh : shards_) {
      out.period =
          std::max(out.period, sh->period.load(std::memory_order_relaxed));
      out.saturation_level +=
          sh->saturation_level.load(std::memory_order_relaxed);
      out.saturation_limit +=
          sh->saturation_limit.load(std::memory_order_relaxed);
    }
    chain->done(std::move(out), nullptr);
    return;
  }
  const std::size_t k = chain->next++;
  Shard& sh = *shards_[k];
  stamp_trace(sh, chain->trace);
  const std::shared_ptr<GroupCommit> commits = sh.commits.load();
  if (!commits) {  // demoted since the entry check
    ensure_primary("revoke");
    throw ContractError("revoke: shard committer is gone (demoting)");
  }
  commits->submit(
      [&sh, k, chain] {
        std::lock_guard rng_lk(sh.rng_mu);
        const std::vector<SignedResetBundle> bundles = sh.store.remove_users(
            chain->by_shard[k], *sh.rng, sh.cached_encryptor().get());
        sh.note_state();
        const Group& group = sh.store.manager().params().group;
        for (const SignedResetBundle& b : bundles) {
          chain->out.bundles.push_back(serialize_bundle(b, group));
        }
        if (!bundles.empty()) {
          chain->out.rolled.emplace_back(k, bundles.back().reset.new_period);
        }
      },
      [this, &sh, chain](std::exception_ptr err) {
        if (err) return chain->done({}, err);
        sh.revokes->inc();
        try {
          revoke_next(chain);
        } catch (...) {
          chain->done({}, std::current_exception());
        }
      },
      chain->trace);
}

ShardRouter::NewPeriodResult ShardRouter::new_period_all() {
  ensure_primary("new-period");
  std::lock_guard barrier_lk(barrier_mu_);
  // Re-checked under the barrier lock: a concurrent demote() (serialized
  // on the same lock) may have turned us into a follower, whose stores are
  // no longer in batching mode — phase 1 would hit the files directly.
  ensure_primary("new-period");
  if (fatal_.load()) {
    throw ContractError("new-period: shard set failed (fail-stop)");
  }
  static obs::Histogram& epoch_barrier_ns =
      obs::histogram("dfkyd_epoch_barrier_ns");
  obs::ScopedTimer span(epoch_barrier_ns);
  // Prepare gate across replicas: every live follower must hold the full
  // pre-barrier history before we stage the epoch roll. Done before taking
  // the state locks — the sender's shipping threads read under shared
  // locks, so waiting while holding them exclusively would deadlock.
  if (const std::shared_ptr<ReplicationSender> r = replication()) {
    r->sync_all();
  }
  // Hold every shard's state lock exclusively for the whole barrier. The
  // committers run their batch AND its sync under this lock, so once we
  // hold all of them no shard has staged-but-unsynced records: the only
  // frames the phase-2 syncs flush are the barrier's own.
  std::vector<std::unique_lock<StateMutex>> locks;
  locks.reserve(shards_.size());
  for (auto& sh : shards_) locks.emplace_back(sh->state_mu);
  // Route ends once the barrier owns every shard: what follows is the
  // two-phase epoch roll (barrier_prepare / barrier_commit spans).
  obs::trace_mark(obs::SpanKind::kRoute);

  NewPeriodResult out;
  // The target epoch equalizes shards that drifted apart through
  // saturating revokes: every shard rolls up to max+1, laggards emitting
  // one bundle per period they skip.
  std::uint64_t target = 0;
  for (auto& sh : shards_) {
    target = std::max(target, sh->store.manager().period());
  }
  ++target;
  try {
    // Phase 1 — prepare: apply and stage each shard's reset record(s).
    // The stores are in batching mode (the committers own them), so this
    // touches no file: a crash here loses everything uniformly.
    for (auto& sh : shards_) {
      stamp_trace(*sh, obs::current_trace());
      std::lock_guard rng_lk(sh->rng_mu);
      const Group& group = sh->store.manager().params().group;
      while (sh->store.manager().period() < target) {
        out.bundles.push_back(serialize_bundle(
            sh->store.new_period(*sh->rng, sh->cached_encryptor().get()),
            group));
      }
      sh->note_state();
      out.saturation_level += sh->store.manager().saturation_level();
      out.saturation_limit += sh->store.manager().saturation_limit();
    }
    obs::trace_mark(obs::SpanKind::kBarrierPrepare);
    // Phase 2 — commit: one WAL append+fsync per shard. A crash between
    // two syncs leaves the set at mixed epochs; open_shard_set rolls the
    // laggards forward, which is sound because we have not acked yet.
    for (auto& sh : shards_) sh->store.sync();
    obs::trace_mark(obs::SpanKind::kBarrierCommit);
  } catch (...) {
    // Some shards may hold applied-but-unstaged or staged-but-unsynced
    // state that a later batch's sync would silently commit. Fail-stop:
    // nothing is acked, the daemon shuts down, recovery re-equalizes.
    fail_stop();
    throw;
  }
  out.period = target;
  obs::counter("dfkyd_epoch_barriers_total").inc();
  // Commit gate: release the state locks (the shipping threads need them
  // shared), then hold the ack until every live follower has replayed the
  // barrier records. A follower that dies mid-wait stops gating — the
  // barrier lands standalone, and the laggard roll-forward (promote /
  // open_shard_set) re-equalizes that replica if it ever comes back.
  locks.clear();
  if (const std::shared_ptr<ReplicationSender> r = replication()) {
    try {
      r->sync_all();
    } catch (...) {
      // The armed gate refused the barrier's ack (lease lost / stale
      // term). The rolls are durable LOCALLY but acknowledging them would
      // fork epoch history from the cluster's: NACK and fail-stop, same
      // contract as the group-commit gate. The re-seed truncates them.
      fail_stop();
      throw;
    }
  }
  obs::trace_mark(obs::SpanKind::kReplAck);
  return out;
}

std::uint64_t ShardRouter::replica_append(std::size_t shard, std::uint64_t gen,
                                          std::uint64_t start_record,
                                          BytesView frames,
                                          std::uint64_t term) {
  if (!follower_.load()) {
    throw ContractError("repl-append: this daemon is a primary");
  }
  if (shard >= shards_.size()) {
    throw ContractError("repl-append: shard " + std::to_string(shard) +
                        " out of range");
  }
  Shard& sh = *shards_[shard];
  std::unique_lock state(sh.state_mu);
  note_term(sh, term, "repl-append");
  stamp_primary_contact();
  const std::uint64_t seq =
      sh.store.replica_apply_frames(gen, start_record, frames);
  sh.note_state();
  // The current-term primary is feeding us again: whatever fencing put us
  // here has been repaired (the forked suffix is gone, or never existed).
  fenced_.store(false);
  obs::counter("dfkyd_shard_mutations_total",
               {{"shard", std::to_string(shard)}, {"verb", "repl-append"}})
      .inc();
  return seq;
}

void ShardRouter::replica_snapshot(std::size_t shard, std::uint64_t gen,
                                   BytesView frame, std::uint64_t term) {
  if (!follower_.load()) {
    throw ContractError("repl-snap: this daemon is a primary");
  }
  if (shard >= shards_.size()) {
    throw ContractError("repl-snap: shard " + std::to_string(shard) +
                        " out of range");
  }
  Shard& sh = *shards_[shard];
  std::unique_lock state(sh.state_mu);
  note_term(sh, term, "repl-snap");
  stamp_primary_contact();
  sh.store.replica_apply_snapshot(gen, frame);
  sh.note_state();
  fenced_.store(false);
  obs::counter("dfkyd_shard_mutations_total",
               {{"shard", std::to_string(shard)}, {"verb", "repl-snap"}})
      .inc();
}

std::uint64_t ShardRouter::replica_truncate(std::size_t shard,
                                            std::uint64_t gen,
                                            std::uint64_t records,
                                            const std::string& expected_tag_hex,
                                            std::uint64_t term) {
  if (!follower_.load()) {
    throw ContractError("repl-truncate: this daemon is a primary");
  }
  if (shard >= shards_.size()) {
    throw ContractError("repl-truncate: shard " + std::to_string(shard) +
                        " out of range");
  }
  Shard& sh = *shards_[shard];
  std::unique_lock state(sh.state_mu);
  note_term(sh, term, "repl-truncate");
  stamp_primary_contact();
  const std::uint64_t seq =
      sh.store.replica_truncate(gen, records, expected_tag_hex);
  sh.note_state();
  obs::counter("dfkyd_shard_mutations_total",
               {{"shard", std::to_string(shard)}, {"verb", "repl-truncate"}})
      .inc();
  return seq;
}

std::size_t ShardRouter::queue_depth_total() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    const std::shared_ptr<GroupCommit> commits = sh->commits.load();
    if (commits) total += commits->depth();
  }
  return total;
}

std::vector<ShardRouter::ReplPosition> ShardRouter::repl_positions() const {
  std::vector<ReplPosition> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::shared_lock lk(sh->state_mu);
    out.push_back(ReplPosition{
        sh->store.generation(),
        static_cast<std::uint64_t>(sh->store.wal_records()),
        sh->store.chain_head_hex()});
  }
  return out;
}

ShardRouter::PromoteResult ShardRouter::promote(
    std::optional<std::uint64_t> new_term) {
  std::lock_guard barrier_lk(barrier_mu_);
  PromoteResult res;
  if (!follower_.load()) {  // already a primary — idempotent, but distinct
    res.already = true;
    res.term = term_.load();
    for (auto& sh : shards_) {
      std::shared_lock lk(sh->state_mu);
      res.period = std::max(res.period, sh->store.manager().period());
    }
    obs::event({.name = "promote",
                .period = static_cast<std::int64_t>(res.period),
                .detail = "already-primary",
                .value = static_cast<std::int64_t>(res.term)});
    return res;
  }
  if (fatal_.load()) {
    throw ContractError("promote: shard set failed (fail-stop)");
  }
  // The new term is durable BEFORE this node can accept a write: a zombie
  // of the old term must see it on its first exchange, not a window where
  // both sides still claim the same term.
  if (new_term) adopt_term(*new_term);
  // Laggard roll-forward: a primary killed inside the barrier's phase-2
  // sync loop replicated the epoch roll to some shards only. The barrier
  // was never acked, so completing it here is safe — the same reasoning
  // (and the same ordinary durable new-periods) as open_shard_set's
  // equalization after a crash.
  std::uint64_t target = 0;
  for (auto& sh : shards_) {
    std::unique_lock lk(sh->state_mu);
    target = std::max(target, sh->store.manager().period());
  }
  std::size_t rolled = 0;
  for (auto& sh : shards_) {
    std::unique_lock lk(sh->state_mu);
    std::lock_guard rng_lk(sh->rng_mu);
    while (sh->store.manager().period() < target) {
      // Durable: batching is off here.
      sh->store.new_period(*sh->rng, sh->cached_encryptor().get());
      ++rolled;
    }
    sh->note_state();
  }
  start_committers();
  fenced_.store(false);
  follower_.store(false);
  res.term = term_.load();
  res.period = target;
  res.rolled = rolled;
  obs::gauge("dfkyd_role", {{"role", "primary"}}).set(1);
  obs::gauge("dfkyd_role", {{"role", "follower"}}).set(0);
  obs::counter("dfkyd_promotions_total").inc();
  obs::counter("dfky_store_shard_rollforwards_total").inc(rolled);
  obs::event({.name = "promote",
              .period = static_cast<std::int64_t>(target),
              .detail = "term=" + std::to_string(res.term),
              .value = static_cast<std::int64_t>(rolled)});
  return res;
}

ShardRouter::PromoteResult ShardRouter::demote() {
  std::lock_guard barrier_lk(barrier_mu_);
  PromoteResult res;
  res.term = term_.load();
  for (auto& sh : shards_) {
    std::shared_lock lk(sh->state_mu);
    res.period = std::max(res.period, sh->store.manager().period());
  }
  if (follower_.load()) {  // already a follower — idempotent, but distinct
    res.already = true;
    obs::event({.name = "demote",
                .period = static_cast<std::int64_t>(res.period),
                .detail = "already-follower",
                .value = static_cast<std::int64_t>(res.term)});
    return res;
  }
  // Refuse new mutations first (ensure_primary), then stop each committer.
  // Mutations already queued drain and ack normally — they were accepted
  // while this node was primary, so they linearize before the demotion.
  // A straggler submitting after the stop flag gets a clean "shutting
  // down" NACK, and the atomic shared_ptr keeps its queue alive while it
  // does — never a call into a destroyed committer.
  follower_.store(true);
  for (auto& sh : shards_) {
    if (const std::shared_ptr<GroupCommit> c = sh->commits.exchange(nullptr)) {
      c->shut_down();
    }
  }
  obs::gauge("dfkyd_role", {{"role", "primary"}}).set(0);
  obs::gauge("dfkyd_role", {{"role", "follower"}}).set(1);
  obs::counter("dfkyd_demotions_total").inc();
  obs::event({.name = "demote",
              .period = static_cast<std::int64_t>(res.period),
              .detail = "term=" + std::to_string(res.term),
              .value = 0});
  return res;
}

ShardRouter::Status ShardRouter::status() const {
  Status st;
  st.shards = shards_.size();
  for (const auto& sh : shards_) {
    std::shared_lock lk(sh->state_mu);
    const SecurityManager& mgr = sh->store.manager();
    st.periods.push_back(mgr.period());
    st.period = std::max(st.period, mgr.period());
    st.active += mgr.active_users();
    st.revoked += mgr.revoked_users();
    st.saturation_level += mgr.saturation_level();
    st.saturation_limit += mgr.saturation_limit();
    st.generation += sh->store.generation();
    st.wal_records += sh->store.wal_records();
    if (const std::shared_ptr<GroupCommit> c = sh->commits.load()) {
      st.commit_batches += c->batches();  // a follower runs no committers
      st.committed += c->committed();
    }
  }
  return st;
}

std::vector<std::uint64_t> ShardRouter::periods() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    out.push_back(sh->period.load(std::memory_order_relaxed));
  }
  return out;
}

ShardRouter::HealthReport ShardRouter::health() const {
  HealthReport h;
  h.follower = follower_.load();
  h.fatal = fatal_.load();
  h.fenced = fenced_.load();
  h.term = term_.load();
  std::vector<std::uint64_t> records(shards_.size(), 0);
  std::vector<std::uint64_t> gens(shards_.size(), 0);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const auto& sh = shards_[k];
    std::shared_lock lk(sh->state_mu);
    h.periods.push_back(sh->store.manager().period());
    h.period = std::max(h.period, h.periods.back());
    h.poisoned.push_back(sh->store.poisoned());
    const std::shared_ptr<GroupCommit> c = sh->commits.load();
    h.queue_depths.push_back(c ? c->queued() : 0);
    records[k] = static_cast<std::uint64_t>(sh->store.wal_records());
    gens[k] = sh->store.generation();
  }
  if (const std::shared_ptr<ReplicationSender> r = replication()) {
    for (const ReplicationSender::FollowerStatus& fs : r->status()) {
      HealthReport::Follower f;
      f.name = fs.name;
      f.live = fs.live;
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        const std::uint64_t gen = k < fs.generation.size() ? fs.generation[k]
                                                          : 0;
        const std::uint64_t acked =
            (gen == gens[k] && k < fs.acked.size()) ? fs.acked[k] : 0;
        if (records[k] > acked) f.lag_records += records[k] - acked;
      }
      h.followers.push_back(std::move(f));
    }
  }
  return h;
}

ShardRouter::Sealed ShardRouter::encrypt(BytesView payload,
                                         std::size_t shard) {
  if (shard >= shards_.size()) {
    throw ContractError("encrypt: shard " + std::to_string(shard) +
                        " out of range (have " +
                        std::to_string(shards_.size()) + ")");
  }
  Shard& sh = *shards_[shard];
  obs::trace_mark(obs::SpanKind::kRoute);
  // Shared across the whole seal, not just the key read, so a ciphertext
  // is never older than an epoch barrier that follows it. The feed
  // publish runs after this lock is gone; RequestHandler keeps the frame
  // behind the reset of its period (DESIGN.md Sect. 16).
  std::shared_lock state(sh.state_mu);
  // Only the seed draw is serialized; the v+3 exponentiations run on a
  // per-request stream, so concurrent encrypts use every worker.
  std::array<byte, 32> seed{};
  {
    std::lock_guard rng_lk(sh.rng_mu);
    obs::trace_mark(obs::SpanKind::kLockWait);
    sh.rng->fill(seed);
  }
  ChaChaRng rng(seed);
  const SecurityManager& mgr = sh.store.manager();
  std::shared_ptr<const Encryptor> enc = sh.cached_encryptor();
  bool build = false;
  if (!enc || enc->public_key() != mgr.public_key()) {
    // The key moved (or this is the shard's first encrypt): seal now with
    // the tables that carry over and leave the rest to the builder, so no
    // request pays for a table build.
    auto next = enc ? std::make_shared<const Encryptor>(*enc, mgr.public_key())
                    : std::make_shared<const Encryptor>(
                          mgr.params(), mgr.public_key(),
                          mgr.generator_tables());
    build = sh.swap_encryptor(enc, next) && !next->complete();
    enc = std::move(next);
  }
  Writer w;
  seal_content(*enc, payload, rng).serialize(w, mgr.params().group);
  obs::trace_mark(obs::SpanKind::kCrypto);
  // Queued after the seal: the builder's first table would otherwise
  // compete for a core with the seal that asked for it.
  if (build) queue_tables(shard);
  return {std::move(w).take(), mgr.period()};
}

void ShardRouter::stop_commits() {
  for (auto& sh : shards_) {
    if (const std::shared_ptr<GroupCommit> c = sh->commits.exchange(nullptr)) {
      c->shut_down();
    }
  }
}

void ShardRouter::snapshot_all() {
  // A follower must never self-rotate: its generations are the primary's
  // (shipped via repl-snap), and a locally minted generation would wedge
  // the stream — the primary's frames would mismatch until a resync.
  if (follower_.load()) return;
  for (auto& sh : shards_) {
    std::unique_lock state(sh->state_mu);
    sh->store.snapshot();
  }
}

}  // namespace dfky::daemon
