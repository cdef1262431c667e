// Content providers and subscriber clients on the broadcast bus.
//
// Server-side scalability (paper Sect. 1.1.4): any number of providers
// encrypt with the same public key; none holds secret material, so
// compromising a provider compromises nothing. Providers track the public
// key from the manager's bus announcements. Subscriber clients wrap a
// Receiver: they decrypt content and follow signed period changes.
#pragma once

#include <optional>
#include <string>

#include "broadcast/bus.h"
#include "core/content.h"
#include "core/receiver.h"

namespace dfky {

class ContentProvider {
 public:
  /// Subscribes to public-key updates on the bus; only updates signed by
  /// `manager_vk`'s key are taken.
  ContentProvider(std::string name, SystemParams sp, PublicKey initial,
                  Gelt manager_vk, BroadcastBus& bus);
  ~ContentProvider();

  ContentProvider(const ContentProvider&) = delete;
  ContentProvider& operator=(const ContentProvider&) = delete;

  const std::string& name() const { return name_; }
  const PublicKey& current_public_key() const { return pk_; }
  /// Corrupted or forged key-update envelopes ignored (the provider keeps
  /// encrypting under its last good key).
  std::size_t quarantined_updates() const { return quarantined_updates_; }

  /// Encrypts `payload` under the current public key and broadcasts it.
  ContentMessage broadcast(BytesView payload, Rng& rng);

 private:
  std::string name_;
  SystemParams sp_;
  PublicKey pk_;
  Gelt manager_vk_;
  BroadcastBus& bus_;
  std::size_t token_;
  std::size_t quarantined_updates_ = 0;
};

/// Publishes the manager's signed public key on the bus (done after every
/// Remove-user / New-period so providers stay current).
void announce_public_key(BroadcastBus& bus, const Group& group,
                         const SignedPublicKey& pk);

/// Publishes a signed reset bundle on the bus.
void announce_reset(BroadcastBus& bus, const Group& group,
                    const SignedResetBundle& bundle);

/// Wraps a Receiver on the bus. Resilient by construction: envelopes that
/// fail to parse or authenticate are counted and quarantined, never thrown
/// through the bus callback; period gaps flip the receiver into kStale.
/// The bus carries no catch-up: a stale receiver catches up through
/// SecurityManager::handle_catch_up, or over dfkyd's `subscribe from`
/// (client::catch_up).
class SubscriberClient {
 public:
  /// Subscribes to content and period-change messages.
  SubscriberClient(SystemParams sp, UserKey key, Gelt manager_vk,
                   BroadcastBus& bus);
  ~SubscriberClient();

  SubscriberClient(const SubscriberClient&) = delete;
  SubscriberClient& operator=(const SubscriberClient&) = delete;

  const SystemParams& params() const { return sp_; }
  const Receiver& receiver() const { return receiver_; }
  /// Mutable access for catch-up (replayed bundles, eviction verdicts).
  Receiver& receiver() { return receiver_; }
  std::uint64_t period() const { return receiver_.period(); }
  ReceiverState state() const { return receiver_.state(); }

  /// Payloads successfully decrypted so far.
  const std::vector<Bytes>& received_content() const { return content_; }
  /// Broadcasts this client failed to decrypt (revoked/stale).
  std::size_t missed_broadcasts() const { return missed_; }
  /// Reset bundles this client could not follow (revoked key).
  std::size_t failed_resets() const { return failed_resets_; }
  /// Envelopes whose payload failed to parse or authenticate (corruption,
  /// forgery) — counted, never surfaced as exceptions.
  std::size_t quarantined_envelopes() const { return quarantined_; }
  /// Duplicate / replayed resets idempotently ignored.
  std::size_t stale_resets_ignored() const { return stale_resets_; }
  /// Period gaps detected (reset for a future period, or a newer observed
  /// ciphertext period).
  std::size_t gaps_detected() const { return gaps_; }

 private:
  void on_message(const Envelope& env);

  SystemParams sp_;
  Receiver receiver_;
  BroadcastBus& bus_;
  std::size_t token_;
  std::vector<Bytes> content_;
  std::size_t missed_ = 0;
  std::size_t failed_resets_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t stale_resets_ = 0;
  std::size_t gaps_ = 0;
};

}  // namespace dfky
