#include "sim/sim_cluster.h"

#include <thread>
#include <utility>

#include "rng/chacha_rng.h"
#include "test_util.h"

namespace dfky::sim {

namespace {

FilePlan fault_free(std::uint64_t seed) {
  FilePlan plan;
  plan.seed = seed;
  return plan;
}

}  // namespace

// ---- SimNode -------------------------------------------------------------------

SimNode::SimNode(std::string name, std::size_t shards, std::uint64_t seed)
    : name_(std::move(name)) {
  faulty_.emplace(fs_, fault_free(seed));
  open(/*create=*/true, shards, /*follower=*/false, seed);
}

SimNode::SimNode(std::string name, const SimNode& src, std::uint64_t seed)
    : name_(std::move(name)) {
  // A replica bootstraps from a disk image of the primary: the durable
  // view (crash() also drops the primary's LOCK ownership, which never
  // travels with a backup). Sharing the image shares the stores' HMAC
  // keys, so shipped frames chain-verify on this node.
  fs_ = src.fs_;
  fs_.crash();
  faulty_.emplace(fs_, fault_free(seed));
  open(/*create=*/false, 0, /*follower=*/true, seed);
}

SimNode::~SimNode() {
  std::unique_lock lk(life_mu_);
  alive_.store(false);
  handler_.reset();
  router_.reset();
}

void SimNode::open(bool create, std::size_t shards, bool follower,
                   std::uint64_t seed) {
  std::vector<StateStore> stores;
  if (create) {
    ChaChaRng rng(seed);
    const SystemParams sp = test::test_params(/*v=*/2, seed);
    std::vector<SecurityManager> managers;
    for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, rng);
    stores = create_shard_set(*faulty_, "store", std::move(managers), rng);
  } else {
    // Like dfkyd: a primary's router rolls laggard shards forward, a
    // follower's does not (that would fork the stream it is about to
    // receive).
    stores = open_shard_set(*faulty_, "store");
  }
  router_.emplace(
      std::move(stores),
      [seed](std::size_t k) {
        return std::make_unique<ChaChaRng>(seed * 1000 + k);
      },
      std::function<void()>{}, follower);
  handler_.emplace(*router_);
  alive_.store(true);
}

std::optional<std::string> SimNode::request(const std::string& line) {
  std::shared_lock lk(life_mu_);
  if (!alive_.load()) return std::nullopt;
  return handler_->handle(line).response;
}

void SimNode::kill() {
  std::unique_lock lk(life_mu_);
  if (!alive_.exchange(false)) return;
  // The platter at the instant of death: everything not fsynced is gone.
  MemFileIo dead = fs_;
  dead.crash();
  // Disarm pending disk faults so the (discarded) teardown can't detonate
  // them inside a destructor.
  faulty_->set_plan(fault_free(1));
  handler_.reset();
  router_.reset();  // joins committers; their parting flushes die with fs_
  fs_ = dead;
}

void SimNode::restart(bool follower, std::uint64_t seed) {
  std::unique_lock lk(life_mu_);
  if (alive_.load()) return;
  faulty_->set_plan(fault_free(seed));
  open(/*create=*/false, 0, follower, seed);
}

MemFileIo SimNode::durable_disk() const {
  MemFileIo copy = fs_;
  copy.crash();
  return copy;
}

// ---- SimLink -------------------------------------------------------------------

namespace {

class SimLink final : public daemon::ReplLink {
 public:
  SimLink(SimNode& target, std::atomic<bool>& cut, LinkFaults faults,
          std::uint64_t seed)
      : target_(target), cut_(cut), faults_(faults), rng_(seed) {}

  std::optional<std::string> roundtrip(const std::string& line) override {
    if (cut_.load()) return std::nullopt;
    // Draw both faults up front so the PRG stream stays aligned whatever
    // the target does.
    const bool dup = rng_.u64() % 1000 < faults_.dup_per_mille;
    const bool lose_ack = rng_.u64() % 1000 < faults_.ack_loss_per_mille;
    auto resp = target_.request(line);
    if (!resp) return std::nullopt;
    if (dup) {
      // The network delivered the line twice; the target must treat the
      // replay as idempotent, and the duplicate's response is the one the
      // sender sees.
      auto again = target_.request(line);
      if (!again) return std::nullopt;
      resp = std::move(again);
    }
    if (lose_ack) return std::nullopt;  // applied, but the sender never hears
    return resp;
  }

 private:
  SimNode& target_;
  std::atomic<bool>& cut_;
  LinkFaults faults_;
  ChaChaRng rng_;
};

}  // namespace

// ---- SimCluster ----------------------------------------------------------------

SimCluster::SimCluster(std::size_t shards, std::size_t followers,
                       std::uint64_t seed, LinkFaults faults)
    : shards_(shards),
      faults_(faults),
      primary_(std::make_unique<SimNode>("primary", shards, seed)) {
  std::vector<daemon::FollowerSpec> specs;
  for (std::size_t i = 0; i < followers; ++i) {
    followers_.push_back(std::make_unique<SimNode>(
        "follower" + std::to_string(i), *primary_, seed + 101 + i));
    partitioned_.push_back(std::make_unique<std::atomic<bool>>(false));
    attempts_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    specs.push_back(daemon::FollowerSpec{
        followers_[i]->name(), [this, i, seed] {
          if (!followers_[i]->alive()) {
            return std::unique_ptr<daemon::ReplLink>{};
          }
          // A fresh connection draws a fresh fault stream; replaying the
          // connection's faults verbatim could fail every reconnect the
          // same way forever.
          const std::uint64_t attempt = attempts_[i]->fetch_add(1);
          return make_link(i, seed + 7919 * (attempt + 1) + i);
        }});
  }
  sender_ = std::make_shared<daemon::ReplicationSender>(
      primary_->router(), std::move(specs),
      daemon::ReplOptions{.max_batch_bytes = std::size_t{1} << 20,
                          .backoff_min_ms = 1,
                          .backoff_max_ms = 10,
                          .lease_ms = 0,
                          .hb_interval_ms = 0,
                          .on_stale_term = {}});
  primary_->router().attach_replication(sender_);
  // An ack is gated only on LIVE followers, and the links connect on the
  // sender's threads: mutations issued before the first connection are
  // standalone acks a primary kill may lose. The workloads count every ack
  // as replicated, so start them only once each follower is live (bounded;
  // a test that times out here fails on its own invariants).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto all_live = [this] {
    for (const auto& f : sender_->status()) {
      if (!f.live) return false;
    }
    return true;
  };
  while (!all_live() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

SimCluster::~SimCluster() {
  if (sender_) {
    sender_->stop();
    if (primary_->alive()) primary_->router().attach_replication(nullptr);
    sender_.reset();
  }
}

std::unique_ptr<daemon::ReplLink> SimCluster::make_link(std::size_t i,
                                                        std::uint64_t seed) {
  return std::make_unique<SimLink>(*followers_[i], *partitioned_[i], faults_,
                                   seed);
}

void SimCluster::kill_primary() {
  if (sender_) {
    sender_->stop();
    primary_->router().attach_replication(nullptr);
    sender_.reset();
  }
  primary_->kill();
}

bool SimCluster::wait_converged(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto head = primary_->router().repl_positions();
    bool all = true;
    for (const auto& f : followers_) {
      if (!f->alive()) continue;
      const auto pos = f->router().repl_positions();
      for (std::size_t k = 0; k < head.size(); ++k) {
        if (pos[k].generation != head[k].generation ||
            pos[k].records != head[k].records) {
          all = false;
        }
      }
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---- SimFailoverCluster --------------------------------------------------------

SimFailoverCluster::SimFailoverCluster(std::size_t shards, std::size_t nodes,
                                       std::uint64_t seed, SimTimings timings,
                                       LinkFaults faults)
    : shards_(shards), seed_(seed), timings_(timings), faults_(faults) {
  members_.push_back(std::make_unique<Member>("node0", shards, seed));
  for (std::size_t i = 1; i < nodes; ++i) {
    members_.push_back(std::make_unique<Member>(
        "node" + std::to_string(i), members_[0]->node, seed + 101 + i));
  }
  for (std::size_t i = 0; i < nodes * nodes; ++i) {
    cut_.push_back(std::make_unique<std::atomic<bool>>(false));
    attempts_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  start_sender(0);
  for (std::size_t i = 1; i < nodes; ++i) arm_watchdog(i);
}

SimFailoverCluster::~SimFailoverCluster() {
  // Watchdogs first: after their threads join, no promotion can engage a
  // new sender under the teardown.
  for (auto& m : members_) {
    if (m->watchdog) m->watchdog->stop();
  }
  for (std::size_t i = 0; i < members_.size(); ++i) stop_sender(i);
}

std::unique_ptr<daemon::ReplLink> SimFailoverCluster::make_link(
    std::size_t from, std::size_t to) {
  Member& target = *members_[to];
  if (!target.node.alive()) return nullptr;
  const std::size_t e = from * members_.size() + to;
  // A fresh connection draws a fresh fault stream (see SimCluster).
  const std::uint64_t attempt = attempts_[e]->fetch_add(1);
  return std::make_unique<SimLink>(target.node, *cut_[e], faults_,
                                   seed_ + 7919 * (attempt + 1) + e);
}

std::vector<daemon::FollowerSpec> SimFailoverCluster::peer_specs(
    std::size_t i) {
  std::vector<daemon::FollowerSpec> specs;
  for (std::size_t j = 0; j < members_.size(); ++j) {
    if (j == i) continue;
    specs.push_back(daemon::FollowerSpec{
        members_[j]->node.name(), [this, i, j] { return make_link(i, j); }});
  }
  return specs;
}

void SimFailoverCluster::start_sender(std::size_t i) {
  Member& m = *members_[i];
  std::lock_guard lk(m.repl_mu);
  if (m.sender) return;
  daemon::ReplOptions ro;
  ro.max_batch_bytes = std::size_t{1} << 20;
  ro.backoff_min_ms = 1;
  ro.backoff_max_ms = 10;
  ro.lease_ms = timings_.lease_ms;
  ro.hb_interval_ms = timings_.hb_interval_ms;
  ro.on_stale_term = [&m](std::uint64_t t) {
    // The daemon also fail-stops and exits here; in-process, fencing the
    // router is the part the ack contract depends on.
    m.node.router().fence(t);
  };
  m.sender = std::make_shared<daemon::ReplicationSender>(
      m.node.router(), peer_specs(i), std::move(ro));
  m.node.router().attach_replication(m.sender);
}

void SimFailoverCluster::stop_sender(std::size_t i) {
  Member& m = *members_[i];
  std::lock_guard lk(m.repl_mu);
  if (!m.sender) return;
  if (m.node.alive()) m.node.router().attach_replication(nullptr);
  m.sender->stop();
  m.sender.reset();
}

void SimFailoverCluster::arm_watchdog(std::size_t i) {
  Member& m = *members_[i];
  daemon::FailoverOptions fo;
  fo.self = m.node.name();
  fo.peers = peer_specs(i);
  fo.hb_timeout_ms = timings_.hb_timeout_ms;
  fo.election_min_ms = timings_.election_min_ms;
  fo.election_max_ms = timings_.election_max_ms;
  fo.backoff_max_ms = 200;
  fo.seed = seed_ * 31 + i;
  fo.on_promoted = [this, i](std::uint64_t) { start_sender(i); };
  m.watchdog = std::make_unique<daemon::FailoverWatchdog>(m.node.router(),
                                                          std::move(fo));
}

void SimFailoverCluster::set_cut(std::size_t from, std::size_t to, bool cut) {
  cut_[from * members_.size() + to]->store(cut);
}

void SimFailoverCluster::isolate(std::size_t i, bool cut) {
  for (std::size_t j = 0; j < members_.size(); ++j) {
    if (j == i) continue;
    set_cut(i, j, cut);
    set_cut(j, i, cut);
  }
}

void SimFailoverCluster::kill(std::size_t i) {
  Member& m = *members_[i];
  if (m.watchdog) {
    m.watchdog->stop();
    m.watchdog.reset();
  }
  stop_sender(i);
  m.node.kill();
}

void SimFailoverCluster::restart_follower(std::size_t i, std::uint64_t seed) {
  members_[i]->node.restart(/*follower=*/true, seed);
  arm_watchdog(i);
}

void SimFailoverCluster::revive_as_primary(std::size_t i,
                                           std::uint64_t seed) {
  members_[i]->node.restart(/*follower=*/false, seed);
  start_sender(i);
}

bool SimFailoverCluster::writable(std::size_t i) {
  Member& m = *members_[i];
  if (!m.node.alive()) return false;
  daemon::ShardRouter& r = m.node.router();
  return !r.follower() && !r.fenced() && !r.fatal();
}

std::size_t SimFailoverCluster::writable_count() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (writable(i)) ++n;
  }
  return n;
}

std::optional<std::size_t> SimFailoverCluster::wait_for_primary(
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (!writable(i)) continue;
      if (!best ||
          members_[i]->node.router().term() >
              members_[*best]->node.router().term()) {
        best = i;
      }
    }
    if (best) return best;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool SimFailoverCluster::wait_converged(std::size_t primary,
                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const auto head = members_[primary]->node.router().repl_positions();
    bool all = true;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i == primary || !members_[i]->node.alive()) continue;
      const auto pos = members_[i]->node.router().repl_positions();
      for (std::size_t k = 0; k < head.size(); ++k) {
        if (pos[k].generation != head[k].generation ||
            pos[k].records != head[k].records ||
            pos[k].chain_head != head[k].chain_head) {
          all = false;
        }
      }
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace dfky::sim
