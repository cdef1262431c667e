#include "broadcast/recovery.h"

#include "obs/metrics.h"

namespace dfky {

CatchUpResponder::CatchUpResponder(SecurityManager& mgr, BroadcastBus& bus,
                                   Rng& rng)
    : mgr_(mgr), bus_(bus), rng_(rng) {
  token_ = bus_.subscribe([this](const Envelope& env) {
    if (env.type != MsgType::kCatchUpRequest) return;
    std::optional<CatchUpRequest> req;
    try {
      Reader r(env.payload);
      req.emplace(CatchUpRequest::deserialize(r));
      r.expect_end();
    } catch (const Error&) {
      ++quarantined_;  // corrupted request; the client will retry
      obs::counter("dfky_catchup_requests_quarantined_total").inc();
      return;
    }
    const CatchUpResponse resp = mgr_.handle_catch_up(*req, rng_);
    Writer w;
    resp.serialize(w, mgr_.params().group);
    ++answered_;
    obs::counter("dfky_catchup_requests_answered_total").inc();
    bus_.publish(Envelope{MsgType::kCatchUpResponse, std::move(w).take()});
  });
}

CatchUpResponder::~CatchUpResponder() {
  bus_.unsubscribe(token_);
}

RecoveryClient::RecoveryClient(SubscriberClient& subscriber, BroadcastBus& bus,
                               RecoveryPolicy policy)
    : subscriber_(subscriber), bus_(bus), policy_(policy) {
  token_ = bus_.subscribe([this](const Envelope& env) { on_message(env); });
}

RecoveryClient::~RecoveryClient() {
  bus_.unsubscribe(token_);
}

void RecoveryClient::on_message(const Envelope& env) {
  ++tick_;
  if (env.type == MsgType::kCatchUpResponse) handle_response(env);

  Receiver& receiver = subscriber_.receiver();
  switch (receiver.state()) {
    case ReceiverState::kUnrecoverable:
      status_ = Status::kUnrecoverable;
      return;
    case ReceiverState::kCurrent:
      // Any stale episode is over; re-arm the budget for the next one.
      if (status_ == Status::kWaiting || status_ == Status::kExhausted) {
        status_ = Status::kRecovered;
      }
      attempts_ = 0;
      next_attempt_tick_ = tick_;
      return;
    case ReceiverState::kStale:
      break;
  }
  if (attempts_ >= policy_.attempt_budget) {
    status_ = Status::kExhausted;
    return;
  }
  if (tick_ < next_attempt_tick_) return;

  CatchUpRequest req;
  req.nonce = policy_.nonce;
  req.have_period = receiver.period();
  req.want_period = receiver.catch_up_target();
  Writer w;
  req.serialize(w);
  ++attempts_;
  ++requests_sent_;
  obs::counter("dfky_recovery_requests_total").inc();
  obs::event({.name = "recovery_request",
              .period = static_cast<std::int64_t>(req.have_period),
              .detail = "attempt",
              .value = static_cast<std::int64_t>(attempts_)});
  status_ = Status::kWaiting;
  // Deterministic exponential backoff, measured in observed bus messages.
  next_attempt_tick_ = tick_ + (policy_.backoff_base << (attempts_ - 1));
  bus_.publish(Envelope{MsgType::kCatchUpRequest, std::move(w).take()});
}

void RecoveryClient::handle_response(const Envelope& env) {
  const Group& group = subscriber_.params().group;
  Receiver& receiver = subscriber_.receiver();
  if (receiver.state() != ReceiverState::kStale) return;

  std::optional<CatchUpResponse> resp;
  try {
    Reader r(env.payload);
    resp.emplace(CatchUpResponse::deserialize(r, group));
    r.expect_end();
  } catch (const Error&) {
    return;  // corrupted response; backoff drives a retry
  }
  if (!resp->verify(group, receiver.manager_vk())) {
    return;  // forged or corrupted in flight; backoff drives a retry
  }

  // The response is authentic, so replay its bundles no matter whose
  // request triggered it (concurrent recoveries share work).
  for (const SignedResetBundle& bundle : resp->bundles) {
    try {
      if (receiver.apply_reset(bundle) == ResetOutcome::kApplied) {
        ++bundles_replayed_;
        obs::counter("dfky_recovery_bundles_replayed_total").inc();
      }
    } catch (const Error&) {
      return;  // inner bundle fails its own check; stop replaying
    }
  }

  // Authenticated eviction verdict: the earliest period the archive still
  // serves is past what this receiver needs. Replay of an old verdict is
  // harmless — the archive only evicts forward, so it stays true.
  if (receiver.state() == ReceiverState::kStale && resp->bundles.empty() &&
      resp->oldest_available > receiver.needed_from()) {
    receiver.mark_unrecoverable();
    status_ = Status::kUnrecoverable;
  }
}

}  // namespace dfky
