#include "core/receiver.h"

#include "obs/metrics.h"

namespace dfky {

namespace {

const char* outcome_name(ResetOutcome outcome) {
  switch (outcome) {
    case ResetOutcome::kApplied: return "applied";
    case ResetOutcome::kStaleIgnored: return "stale_ignored";
    case ResetOutcome::kGapDetected: return "gap_detected";
    case ResetOutcome::kCannotFollow: return "cannot_follow";
  }
  return "unknown";
}

}  // namespace

Receiver::Receiver(SystemParams sp, UserKey key, Gelt manager_vk, bool strict)
    : sp_(std::move(sp)),
      key_(std::move(key)),
      manager_vk_(std::move(manager_vk)),
      strict_(strict),
      signed_horizon_(key_.period),
      hinted_horizon_(key_.period) {}

Gelt Receiver::decrypt(const Ciphertext& ct) const {
  return dfky::decrypt(sp_, key_, ct);
}

ResetOutcome Receiver::apply_next(const SignedResetBundle& bundle) {
  std::optional<std::pair<Polynomial, Polynomial>> de;
  try {
    de.emplace(open_reset_message(sp_, key_, bundle.reset));
  } catch (const Error&) {
    if (strict_) throw;
    // A revoked (or otherwise broken) key cannot open the payload. The
    // key is untouched; the receiver simply falls behind and expires.
    return ResetOutcome::kCannotFollow;
  }
  const Zq& zq = sp_.group.zq();
  key_.ax = zq.add(key_.ax, de->first.eval(key_.x));
  key_.bx = zq.add(key_.bx, de->second.eval(key_.x));
  key_.period = bundle.reset.new_period;
  return ResetOutcome::kApplied;
}

ResetOutcome Receiver::apply_reset(const SignedResetBundle& bundle) {
  static obs::Histogram& reset_apply_ns = obs::histogram("dfky_reset_apply_ns");
  obs::ScopedTimer span(reset_apply_ns);
  // Record the outcome (plus an event) of every return path below.
  const auto noted = [&bundle](ResetOutcome outcome) {
    obs::counter("dfky_reset_apply_total",
                 {{"outcome", outcome_name(outcome)}})
        .inc();
    obs::event({.name = "reset_apply",
                .period = static_cast<std::int64_t>(bundle.reset.new_period),
                .detail = outcome_name(outcome)});
    return outcome;
  };
  if (!bundle.verify(sp_.group, manager_vk_)) {
    obs::counter("dfky_reset_apply_total", {{"outcome", "bad_signature"}})
        .inc();
    throw DecodeError("Receiver: reset bundle signature invalid");
  }
  if (strict_) {
    if (bundle.reset.new_period != key_.period + 1) {
      throw DecodeError("Receiver: reset message for unexpected period");
    }
    return noted(apply_next(bundle));
  }
  if (state_ == ReceiverState::kUnrecoverable) {
    return noted(ResetOutcome::kStaleIgnored);
  }

  const std::uint64_t target = bundle.reset.new_period;
  if (target <= key_.period) {
    return noted(ResetOutcome::kStaleIgnored);  // duplicate or replayed reset
  }
  signed_horizon_ = std::max(signed_horizon_, target);

  if (target > key_.period + 1) {
    // Gap: quarantine the verified bundle for replay once it closes.
    // Keep the lowest periods when full — they unblock the longest runs.
    if (pending_.size() < kMaxPending || target < pending_.rbegin()->first) {
      pending_.emplace(target, bundle);
      if (pending_.size() > kMaxPending) {
        pending_.erase(std::prev(pending_.end()));
      }
    }
    refresh_state();
    return noted(ResetOutcome::kGapDetected);
  }

  const ResetOutcome outcome = apply_next(bundle);
  if (outcome == ResetOutcome::kApplied) {
    // Drain any buffered consecutive bundles the gap was hiding.
    while (true) {
      pending_.erase(pending_.begin(), pending_.lower_bound(key_.period + 1));
      const auto it = pending_.find(key_.period + 1);
      if (it == pending_.end()) break;
      const SignedResetBundle next = std::move(it->second);
      pending_.erase(it);
      if (apply_next(next) != ResetOutcome::kApplied) break;
    }
  }
  refresh_state();
  return noted(outcome);
}

void Receiver::note_content_frame(std::uint64_t period, bool opened) {
  if (strict_ || state_ == ReceiverState::kUnrecoverable) return;
  if (opened) {
    hinted_horizon_ = key_.period;
  } else if (period > key_.period) {
    hinted_horizon_ = period;
  } else {
    return;  // an old frame, or one this key is revoked from: no evidence
  }
  refresh_state();
}

std::uint64_t Receiver::catch_up_target() const {
  return std::max(signed_horizon_, hinted_horizon_);
}

bool Receiver::apply_eviction(const EvictionVerdict& verdict) {
  if (!verdict.verify(sp_.group, manager_vk_) ||
      verdict.oldest_available <= needed_from()) {
    return false;
  }
  state_ = ReceiverState::kUnrecoverable;
  pending_.clear();
  return true;
}

void Receiver::refresh_state() {
  if (state_ == ReceiverState::kUnrecoverable) return;
  state_ = catch_up_target() > key_.period ? ReceiverState::kStale
                                           : ReceiverState::kCurrent;
}

}  // namespace dfky
