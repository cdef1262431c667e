// In-process broadcast channel.
//
// Models the paper's distribution medium: an authenticated-but-insecure
// broadcast channel every party (and every eavesdropper) can read. Messages
// are serialized bytes — the byte counters here are what the transmission-
// efficiency experiments report.
//
// The channel is authenticated but NOT reliable: `publish` is virtual so
// FaultyBus can interpose drops, duplicates, reorders, corruption, and
// delays between the sender's log and the subscribers (see faulty_bus.h).
#pragma once

#include <functional>
#include <map>

#include "common.h"

namespace dfky {

enum class MsgType : std::uint8_t {
  kContent = 0,          // ContentMessage from a provider
  kPublicKeyUpdate = 1,  // PublicKey republished by the manager
  kChangePeriod = 2,     // SignedResetBundle
};

struct Envelope {
  MsgType type;
  Bytes payload;
};

/// Stable lowercase name for metric labels and log lines.
const char* msg_type_name(MsgType type);

class BroadcastBus {
 public:
  using Handler = std::function<void(const Envelope&)>;

  virtual ~BroadcastBus() = default;

  /// Registers a listener; returns a token for unsubscribe.
  std::size_t subscribe(Handler handler);
  void unsubscribe(std::size_t token);

  /// Logs the message and delivers it to all current subscribers. The base
  /// bus is synchronous and lossless; FaultyBus overrides this.
  virtual void publish(Envelope env);

  // Published side: what the sender put on the wire. Delivered side: each
  // envelope that actually reached the subscriber set, counted once per
  // envelope — drops make delivered < published, duplicates make it larger.
  // The process-wide registry mirrors these instance counters as the
  // dfky_bus_* series, summed over every bus in the process.
  std::uint64_t messages_sent() const { return messages_; }
  std::uint64_t bytes_sent() const { return bytes_; }
  std::uint64_t bytes_sent(MsgType type) const;
  std::uint64_t messages_delivered() const { return delivered_messages_; }
  std::uint64_t bytes_delivered() const { return delivered_bytes_; }
  std::uint64_t bytes_delivered(MsgType type) const;

  /// Everything ever broadcast — the eavesdropper's view. Faults are a
  /// delivery phenomenon; the log always records what the sender put on
  /// the wire.
  const std::vector<Envelope>& log() const { return log_; }

 protected:
  /// Accounting + append to the eavesdropper log.
  void record(const Envelope& env);
  /// Invokes every current handler on `env`. Snapshots the handler map
  /// first, so handlers may (un)subscribe — or publish recursively —
  /// during delivery.
  void deliver(const Envelope& env);

 private:
  std::map<std::size_t, Handler> handlers_;
  std::size_t next_token_ = 0;
  std::vector<Envelope> log_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::map<MsgType, std::uint64_t> bytes_by_type_;
  std::uint64_t delivered_messages_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::map<MsgType, std::uint64_t> delivered_bytes_by_type_;
};

}  // namespace dfky
