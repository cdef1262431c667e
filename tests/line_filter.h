// A seeded fault filter over served `bcast` lines, for the channel-fault
// matrix.
//
// The paper's broadcast medium is authenticated but unreliable; delivered
// losslessly, the feed hides a whole class of receiver failures (one missed
// new-period frame strands a legitimate subscriber). LineFilter sits
// between the lines a deployment publishes and its subscribers and applies
// a deterministic fault plan: per-line drop / duplicate / reorder /
// corruption / delay-by-N-lines probabilities, plus a targeted "drop the
// next new-period frame" directive for staging exact gap scenarios.
// Corruption flips one byte of the line's decoded hex payload (the last
// field: `ct=` or `bundles=`) and re-encodes it, so a forged frame still
// parses as a frame and reaches the receiver's decoders. Every decision is
// drawn from a ChaCha20 PRG seeded by the plan, so two runs with one seed
// and one line sequence deliver identical lines with identical counters.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "daemon/protocol.h"
#include "rng/chacha_rng.h"

namespace dfky::test {

/// Knobs of the channel model. Probabilities are evaluated independently
/// per line, in a fixed order (drop, duplicate, corrupt, delay, reorder),
/// so the random stream — and therefore the run — is seed-deterministic.
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop_prob = 0.0;       // line never delivered
  double duplicate_prob = 0.0;  // line delivered twice back-to-back
  double corrupt_prob = 0.0;    // one payload byte flipped before delivery
  double delay_prob = 0.0;      // delivery deferred by `delay_lines`
  double reorder_prob = 0.0;    // delivery deferred by one line (swap)
  std::size_t delay_lines = 2;
};

/// Per-fault counters. `published` counts publish() calls; `delivered`
/// counts lines handed to the sink (duplicates twice, drops not at all).
struct FaultCounters {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t targeted_drops = 0;

  bool operator==(const FaultCounters&) const = default;
};

class LineFilter {
 public:
  using Sink = std::function<void(const std::string& line)>;

  LineFilter(FaultPlan plan, Sink sink)
      : plan_(plan), rng_(plan.seed), sink_(std::move(sink)) {}

  /// Targeted directive: unconditionally drop the next `n` new-period
  /// frames (stages "the receiver missed the reset" exactly).
  void drop_next_new_periods(std::size_t n) { drop_new_period_budget_ += n; }

  void publish(std::string line) {
    ++counters_.published;
    ++clock_;
    // Fixed draw order keeps the PRG stream aligned across runs.
    const bool drop = roll(plan_.drop_prob);
    const bool duplicate = roll(plan_.duplicate_prob);
    const bool corrupt = roll(plan_.corrupt_prob);
    const bool delay = roll(plan_.delay_prob);
    const bool reorder = roll(plan_.reorder_prob);
    const std::uint64_t corrupt_pos = rng_.u64();

    if (line.starts_with("bcast new-period ") && drop_new_period_budget_ > 0) {
      --drop_new_period_budget_;
      ++counters_.targeted_drops;
      ++counters_.dropped;
    } else if (drop) {
      ++counters_.dropped;
    } else {
      if (corrupt && flip_payload_byte(line, corrupt_pos)) {
        ++counters_.corrupted;
      }
      if (delay) {
        ++counters_.delayed;
        held_.emplace(clock_ + plan_.delay_lines, std::move(line));
      } else if (reorder) {
        ++counters_.reordered;
        held_.emplace(clock_ + 1, std::move(line));
      } else {
        deliver(line);
        if (duplicate) {
          ++counters_.duplicated;
          deliver(line);
        }
      }
    }
    while (!held_.empty() && held_.begin()->first <= clock_) release_first();
  }

  /// Releases every delayed or reordered line now, in schedule order.
  void flush() {
    while (!held_.empty()) release_first();
  }

  /// Zeroes every fault probability and the targeted budget and releases
  /// the held lines: the channel heals. Counters and the PRG stream stay.
  void heal() {
    plan_.drop_prob = plan_.duplicate_prob = plan_.corrupt_prob = 0.0;
    plan_.delay_prob = plan_.reorder_prob = 0.0;
    drop_new_period_budget_ = 0;
    flush();
  }

  const FaultCounters& fault_counters() const { return counters_; }

 private:
  bool roll(double prob) {
    // 53-bit uniform draw; drawn unconditionally per fault type per line
    // so the stream position never depends on earlier outcomes.
    const double u =
        static_cast<double>(rng_.u64() >> 11) * (1.0 / 9007199254740992.0);
    return u < prob;
  }

  void deliver(const std::string& line) {
    ++counters_.delivered;
    sink_(line);
  }

  void release_first() {
    const std::string line = std::move(held_.begin()->second);
    held_.erase(held_.begin());
    deliver(line);
  }

  /// XORs byte `pos` (mod the payload size) of the line's last field —
  /// comma-separated hex items — and re-encodes it. False when that field
  /// is not hex or is empty.
  static bool flip_payload_byte(std::string& line, std::uint64_t pos) {
    const std::size_t eq = line.rfind('=');
    if (eq == std::string::npos || line.find(' ', eq) != std::string::npos) {
      return false;
    }
    std::vector<Bytes> items;
    std::size_t total = 0;
    for (std::size_t at = eq + 1; at <= line.size();) {
      const std::size_t end = std::min(line.find(',', at), line.size());
      std::optional<Bytes> raw = daemon::hex_decode(
          std::string_view(line).substr(at, end - at));
      if (!raw) return false;
      total += raw->size();
      items.push_back(std::move(*raw));
      at = end + 1;
    }
    if (total == 0) return false;
    std::size_t left = static_cast<std::size_t>(pos % total);
    for (Bytes& item : items) {
      if (left < item.size()) {
        item[left] ^= 0x5a;
        break;
      }
      left -= item.size();
    }
    std::string field;
    for (const Bytes& item : items) {
      if (!field.empty()) field += ',';
      field += daemon::hex_encode(item);
    }
    line.replace(eq + 1, std::string::npos, field);
    return true;
  }

  FaultPlan plan_;
  ChaChaRng rng_;
  Sink sink_;
  FaultCounters counters_;
  std::size_t drop_new_period_budget_ = 0;
  std::uint64_t clock_ = 0;  // publish() calls seen so far
  std::multimap<std::uint64_t, std::string> held_;  // release clock -> line
};

}  // namespace dfky::test
