#include "broadcast/provider.h"

namespace dfky {

ContentProvider::ContentProvider(std::string name, SystemParams sp,
                                 PublicKey initial, Gelt manager_vk,
                                 BroadcastBus& bus)
    : name_(std::move(name)),
      sp_(std::move(sp)),
      pk_(std::move(initial)),
      manager_vk_(std::move(manager_vk)),
      bus_(bus) {
  token_ = bus_.subscribe([this](const Envelope& env) {
    if (env.type != MsgType::kPublicKeyUpdate) return;
    try {
      Reader r(env.payload);
      SignedPublicKey update = SignedPublicKey::deserialize(r, sp_.group);
      r.expect_end();
      if (!update.verify(sp_.group, manager_vk_)) {
        throw DecodeError("public-key update signature invalid");
      }
      // A delayed/reordered update must not roll the provider's key back
      // to an earlier period (same-period updates carry new revocations).
      if (update.pk.period >= pk_.period) pk_ = std::move(update.pk);
    } catch (const Error&) {
      ++quarantined_updates_;  // corrupted on the wire, or forged
    }
  });
}

ContentProvider::~ContentProvider() {
  bus_.unsubscribe(token_);
}

ContentMessage ContentProvider::broadcast(BytesView payload, Rng& rng) {
  ContentMessage msg = seal_content(sp_, pk_, payload, rng);
  Writer w;
  msg.serialize(w, sp_.group);
  bus_.publish(Envelope{MsgType::kContent, std::move(w).take()});
  return msg;
}

void announce_public_key(BroadcastBus& bus, const Group& group,
                         const SignedPublicKey& pk) {
  Writer w;
  pk.serialize(w, group);
  bus.publish(Envelope{MsgType::kPublicKeyUpdate, std::move(w).take()});
}

void announce_reset(BroadcastBus& bus, const Group& group,
                    const SignedResetBundle& bundle) {
  Writer w;
  bundle.serialize(w, group);
  bus.publish(Envelope{MsgType::kChangePeriod, std::move(w).take()});
}

SubscriberClient::SubscriberClient(SystemParams sp, UserKey key,
                                   Gelt manager_vk, BroadcastBus& bus)
    : sp_(sp), receiver_(std::move(sp), std::move(key), std::move(manager_vk)),
      bus_(bus) {
  token_ = bus_.subscribe([this](const Envelope& env) { on_message(env); });
}

SubscriberClient::~SubscriberClient() {
  bus_.unsubscribe(token_);
}

void SubscriberClient::on_message(const Envelope& env) {
  switch (env.type) {
    case MsgType::kContent: {
      std::optional<ContentMessage> msg;
      try {
        Reader r(env.payload);
        msg.emplace(ContentMessage::deserialize(r, sp_.group));
        r.expect_end();
      } catch (const Error&) {
        ++quarantined_;  // corrupted on the wire
        break;
      }
      bool opened = true;
      try {
        content_.push_back(open_content(sp_, receiver_.key(), *msg));
      } catch (const Error&) {
        ++missed_;  // revoked or stale key
        opened = false;
      }
      // A ciphertext from a future period is (unauthenticated) evidence
      // that New-period bundles were lost; an opened one withdraws it.
      const bool was_stale = receiver_.state() != ReceiverState::kCurrent;
      receiver_.note_content_frame(msg->kem.period, opened);
      if (!was_stale && receiver_.state() == ReceiverState::kStale) ++gaps_;
      break;
    }
    case MsgType::kChangePeriod: {
      std::optional<SignedResetBundle> bundle;
      try {
        Reader r(env.payload);
        bundle.emplace(SignedResetBundle::deserialize(r, sp_.group));
        r.expect_end();
      } catch (const Error&) {
        ++quarantined_;  // corrupted on the wire
        break;
      }
      try {
        switch (receiver_.apply_reset(*bundle)) {
          case ResetOutcome::kApplied:
            break;
          case ResetOutcome::kStaleIgnored:
            ++stale_resets_;
            break;
          case ResetOutcome::kGapDetected:
            ++gaps_;
            break;
          case ResetOutcome::kCannotFollow:
            ++failed_resets_;  // revoked receivers cannot follow the change
            break;
        }
      } catch (const Error&) {
        ++quarantined_;  // forged signature (or corrupted past parsing)
      }
      break;
    }
    case MsgType::kPublicKeyUpdate:
      break;  // handled by providers, not the subscriber
  }
}

}  // namespace dfky
