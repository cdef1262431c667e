#include "broadcast/bus.h"

#include "obs/metrics.h"

namespace dfky {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kContent: return "content";
    case MsgType::kPublicKeyUpdate: return "public_key_update";
    case MsgType::kChangePeriod: return "change_period";
  }
  return "unknown";
}

std::size_t BroadcastBus::subscribe(Handler handler) {
  const std::size_t token = next_token_++;
  handlers_.emplace(token, std::move(handler));
  return token;
}

void BroadcastBus::unsubscribe(std::size_t token) {
  handlers_.erase(token);
}

void BroadcastBus::record(const Envelope& env) {
  ++messages_;
  bytes_ += env.payload.size();
  bytes_by_type_[env.type] += env.payload.size();
  log_.push_back(env);
  const obs::Labels labels = {{"type", msg_type_name(env.type)}};
  obs::counter("dfky_bus_publish_total", labels).inc();
  obs::counter("dfky_bus_publish_bytes_total", labels).inc(env.payload.size());
}

void BroadcastBus::deliver(const Envelope& env) {
  ++delivered_messages_;
  delivered_bytes_ += env.payload.size();
  delivered_bytes_by_type_[env.type] += env.payload.size();
  const obs::Labels labels = {{"type", msg_type_name(env.type)}};
  obs::counter("dfky_bus_deliver_total", labels).inc();
  obs::counter("dfky_bus_deliver_bytes_total", labels).inc(env.payload.size());
  // Deliver to a snapshot so handlers may (un)subscribe during delivery.
  // `env` must be the caller's own copy: a handler that publishes
  // recursively grows log_, so a reference into it would dangle.
  std::vector<Handler> snapshot;
  snapshot.reserve(handlers_.size());
  for (const auto& [token, h] : handlers_) snapshot.push_back(h);
  for (const Handler& h : snapshot) h(env);
}

void BroadcastBus::publish(Envelope env) {
  record(env);
  deliver(env);
}

std::uint64_t BroadcastBus::bytes_sent(MsgType type) const {
  const auto it = bytes_by_type_.find(type);
  return it == bytes_by_type_.end() ? 0 : it->second;
}

std::uint64_t BroadcastBus::bytes_delivered(MsgType type) const {
  const auto it = delivered_bytes_by_type_.find(type);
  return it == delivered_bytes_by_type_.end() ? 0 : it->second;
}

}  // namespace dfky
