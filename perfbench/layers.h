// In-process calls into each layer's public entry point, timed at a
// workload's sizes (sec512, v = 16) — the per-layer half of a traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct LayerSizes {
  std::size_t payload_bytes = 0;  // encrypt payload of the workload
  std::size_t shards = 1;         // shard count of the workload's daemon
  std::size_t threads = 4;        // encrypt threads for the speedup ratio
};

/// Metric name -> value. Timings are medians in microseconds (names end in
/// `_us`); `shard.encrypt_speedup_4t` is a ratio. `dir` is a scratch
/// directory for the store and shard layers; it is removed afterwards.
std::map<std::string, double> run_layers(const LayerSizes& sizes,
                                         std::uint64_t seed,
                                         const std::string& dir);

}  // namespace perfbench
