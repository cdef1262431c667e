#include "broadcast/faulty_bus.h"

#include "obs/metrics.h"

namespace dfky {

namespace {

// Mirrors a per-instance FaultCounters increment into the registry; the
// struct itself stays the source of truth for seeded-determinism tests.
inline void note_fault(const char* kind) {
  obs::counter("dfky_bus_faults_total", {{"kind", kind}}).inc();
}

}  // namespace

FaultyBus::FaultyBus(FaultPlan plan) : plan_(plan), rng_(plan.seed) {}

bool FaultyBus::roll(double prob) {
  // 53-bit uniform draw; drawn unconditionally per fault type per message
  // so the stream position never depends on earlier outcomes.
  const double u =
      static_cast<double>(rng_.u64() >> 11) * (1.0 / 9007199254740992.0);
  return u < prob;
}

void FaultyBus::release_due() {
  while (!held_.empty() && held_.begin()->first <= clock_) {
    Envelope env = std::move(held_.begin()->second);
    held_.erase(held_.begin());
    ++counters_.delivered;
    deliver(env);
  }
}

void FaultyBus::publish(Envelope env) {
  record(env);  // the sender put it on the wire; the eavesdropper saw it
  ++counters_.published;
  ++clock_;

  // Fixed draw order keeps the PRG stream aligned across runs.
  const bool drop = roll(plan_.drop_prob);
  const bool duplicate = roll(plan_.duplicate_prob);
  const bool corrupt = roll(plan_.corrupt_prob);
  const bool delay = roll(plan_.delay_prob);
  const bool reorder = roll(plan_.reorder_prob);
  const std::uint64_t corrupt_pos = rng_.u64();

  const bool targeted =
      env.type == MsgType::kChangePeriod && drop_change_period_budget_ > 0;
  if (targeted) {
    --drop_change_period_budget_;
    ++counters_.targeted_drops;
    ++counters_.dropped;
    note_fault("targeted_drop");
    note_fault("drop");
    release_due();
    return;
  }
  if (drop) {
    ++counters_.dropped;
    note_fault("drop");
    release_due();
    return;
  }
  if (corrupt && !env.payload.empty()) {
    env.payload[corrupt_pos % env.payload.size()] ^= 0x5a;
    ++counters_.corrupted;
    note_fault("corrupt");
  }
  if (delay) {
    ++counters_.delayed;
    note_fault("delay");
    held_.emplace(clock_ + plan_.delay_messages, std::move(env));
  } else if (reorder) {
    ++counters_.reordered;
    note_fault("reorder");
    held_.emplace(clock_ + 1, std::move(env));
  } else {
    ++counters_.delivered;
    deliver(env);
    if (duplicate) {
      ++counters_.duplicated;
      ++counters_.delivered;
      note_fault("duplicate");
      deliver(env);
    }
  }
  release_due();
}

void FaultyBus::flush() {
  while (!held_.empty()) {
    Envelope env = std::move(held_.begin()->second);
    held_.erase(held_.begin());
    ++counters_.delivered;
    deliver(env);
  }
}

void FaultyBus::heal() {
  plan_.drop_prob = 0.0;
  plan_.duplicate_prob = 0.0;
  plan_.corrupt_prob = 0.0;
  plan_.delay_prob = 0.0;
  plan_.reorder_prob = 0.0;
  drop_change_period_budget_ = 0;
  flush();
}

}  // namespace dfky
