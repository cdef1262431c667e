#include "daemon/failover.h"

#include <algorithm>

#include "daemon/protocol.h"
#include "daemon/shard.h"
#include "obs/metrics.h"

namespace dfky::daemon {

namespace {

std::optional<std::uint64_t> field_u64(const Response& r, const std::string& k) {
  const auto it = r.fields.find(k);
  if (it == r.fields.end()) return std::nullopt;
  return parse_u64(it->second);
}

/// Summed catch-up position parsed from a repl-status response:
/// generations first (a rotation outranks any record count within one),
/// then records. Identity breaks exact ties.
struct Position {
  std::uint64_t generations = 0;
  std::uint64_t records = 0;
};

Position parse_position(const Response& r) {
  Position p;
  for (std::size_t k = 0;; ++k) {
    // GCC 12 -Wrestrict false positive inside libstdc++'s char_traits.h.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    const auto it = r.fields.find("s" + std::to_string(k));
#pragma GCC diagnostic pop
    if (it == r.fields.end()) break;
    const std::size_t colon = it->second.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t colon2 = it->second.find(':', colon + 1);
    const auto g = parse_u64(it->second.substr(0, colon));
    const auto s = parse_u64(
        it->second.substr(colon + 1, colon2 == std::string::npos
                                         ? std::string::npos
                                         : colon2 - colon - 1));
    if (g) p.generations += *g;
    if (s) p.records += *s;
  }
  return p;
}

}  // namespace

FailoverWatchdog::FailoverWatchdog(ShardRouter& router, FailoverOptions opts)
    : router_(router),
      opts_(std::move(opts)),
      rng_(opts_.seed),
      started_(std::chrono::steady_clock::now()) {
  obs::gauge("dfky_watchdog_state").set(0);
  thread_ = std::thread([this] { loop(); });
}

FailoverWatchdog::~FailoverWatchdog() { stop(); }

void FailoverWatchdog::stop() {
  {
    std::lock_guard lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

const char* FailoverWatchdog::state_name(State s) {
  switch (s) {
    case State::kIdle:
      return "idle";
    case State::kWatching:
      return "watching";
    case State::kElecting:
      return "electing";
    case State::kPromoted:
      return "promoted";
  }
  return "?";
}

void FailoverWatchdog::set_state(State s) {
  state_.store(s);
  obs::gauge("dfky_watchdog_state").set(static_cast<int>(s));
}

bool FailoverWatchdog::stopped_wait(std::chrono::milliseconds d) {
  std::unique_lock lk(mu_);
  cv_.wait_for(lk, d, [&] { return stop_; });
  return stop_;
}

void FailoverWatchdog::loop() {
  set_state(State::kWatching);
  const auto hb_timeout = std::chrono::milliseconds(opts_.hb_timeout_ms);
  // Poll the contact clock a few times per timeout; the clock itself is
  // stamped by the ingest path, so silence detection needs no callbacks.
  const auto tick = std::chrono::milliseconds(
      std::clamp(opts_.hb_timeout_ms / 4, 5, 250));
  int backoff_ms = 0;
  for (;;) {
    if (!router_.follower()) {
      // A manual `promote` beat us to it — the watchdog's job is done.
      set_state(State::kPromoted);
      return;
    }
    const std::int64_t age = router_.primary_contact_age_ms();
    const auto since_start = std::chrono::steady_clock::now() - started_;
    const bool silent =
        age >= 0 ? age > opts_.hb_timeout_ms : since_start > hb_timeout;
    if (!silent) {
      set_state(State::kWatching);
      backoff_ms = 0;
      if (stopped_wait(tick)) return;
      continue;
    }
    // The primary is presumed dead. Randomized delay first — candidates
    // desynchronize, and a heartbeat arriving meanwhile cancels the round.
    set_state(State::kElecting);
    const int window = std::max(1, opts_.election_max_ms -
                                       opts_.election_min_ms + 1);
    const int delay_ms =
        opts_.election_min_ms +
        static_cast<int>(rng_() % static_cast<std::uint64_t>(window)) +
        backoff_ms;
    if (stopped_wait(std::chrono::milliseconds(delay_ms))) return;
    const std::int64_t age2 = router_.primary_contact_age_ms();
    if (age2 >= 0 && age2 <= opts_.hb_timeout_ms) continue;  // it came back
    switch (campaign()) {
      case Round::kWon:
        set_state(State::kPromoted);
        return;
      case Round::kPrimaryAlive:
        // Defer to that primary: restart our silence clock so the next
        // campaign is a full timeout away even if it never feeds US (the
        // partition heals, or its sender reaches us eventually).
        router_.stamp_primary_contact();
        backoff_ms = 0;
        set_state(State::kWatching);
        break;
      case Round::kLost:
      case Round::kNoQuorum:
        backoff_ms = std::min(
            backoff_ms == 0 ? std::max(1, opts_.election_min_ms)
                            : backoff_ms * 2,
            opts_.backoff_max_ms);
        break;
    }
  }
}

FailoverWatchdog::Round FailoverWatchdog::campaign() {
  obs::counter("dfkyd_elections_total").inc();
  Position mine;
  for (const auto& p : router_.repl_positions()) {
    mine.generations += p.generation;
    mine.records += p.records;
  }
  std::uint64_t max_term = router_.term();
  std::size_t votes = 1;  // self
  bool outranked = false;
  for (const FollowerSpec& peer : opts_.peers) {
    if (stopped_wait(std::chrono::milliseconds(0))) return Round::kNoQuorum;
    const auto link = peer.connect ? peer.connect() : nullptr;
    if (!link) continue;
    const auto out = link->roundtrip("repl-status");
    if (!out) continue;
    const auto resp = parse_response(*out);
    if (!resp || !resp->ok) continue;
    const auto pterm = field_u64(*resp, "term");
    if (pterm) max_term = std::max(max_term, *pterm);
    const auto role = resp->fields.find("role");
    if (role != resp->fields.end() && role->second == "primary") {
      if (!pterm || *pterm >= router_.term()) {
        // A live primary at our epoch or newer: adopt and stand down.
        if (pterm) router_.adopt_term(*pterm);
        return Round::kPrimaryAlive;
      }
      continue;  // a zombie at a stale term is not a vote — it gets fenced
    }
    const auto hb_age = field_u64(*resp, "hb_age_ms");
    if (hb_age && *hb_age <= static_cast<std::uint64_t>(opts_.hb_timeout_ms)) {
      // That follower still hears a primary we cannot reach (asymmetric
      // partition): electing ourselves would split the cluster.
      return Round::kPrimaryAlive;
    }
    ++votes;  // a reachable, equally starved follower
    const Position theirs = parse_position(*resp);
    if (theirs.generations > mine.generations ||
        (theirs.generations == mine.generations &&
         (theirs.records > mine.records ||
          (theirs.records == mine.records && peer.name < opts_.self)))) {
      outranked = true;  // keep polling: a primary answer still overrides
    }
  }
  // Majority of the follower set (cluster minus its one primary; with N
  // peers the follower set has N members — the dead primary is a peer but
  // not a follower). An armed ack reached >= (N+1)/2 followers, any two
  // such sets intersect with any N/2+1 voter set, and followers hold
  // prefixes of one chain — so the most-caught-up voter holds every acked
  // record, and standing down to it (kLost) never loses one.
  const std::size_t quorum = opts_.peers.size() / 2 + 1;
  if (votes < quorum) return Round::kNoQuorum;
  if (outranked) return Round::kLost;
  const std::uint64_t new_term = max_term + 1;
  try {
    const ShardRouter::PromoteResult r = router_.promote(new_term);
    obs::counter("dfky_failovers_total").inc();
    obs::event({.name = "failover",
                .detail = "promoted self, " + std::to_string(r.rolled) +
                          " laggard roll-forward(s)",
                .value = static_cast<std::int64_t>(new_term)});
  } catch (const Error&) {
    return Round::kNoQuorum;  // fail-stopped or raced; retry after backoff
  }
  if (opts_.on_promoted) opts_.on_promoted(new_term);
  return Round::kWon;
}

}  // namespace dfky::daemon
