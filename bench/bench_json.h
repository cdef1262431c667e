// Machine-readable bench output: every bench_* binary additionally writes a
// BENCH_<name>.json next to its human-readable table, so the perf trajectory
// accumulates across PRs (schema documented in DESIGN.md Sect. 8).
//
// Schema (dfky-bench-v1):
//   {
//     "schema": "dfky-bench-v1",
//     "bench": "<bench name>",
//     "smoke": <bool>,            // true when DFKY_BENCH_SMOKE=1 shrank sizes
//     "obs": <bool>,              // always true: the metrics layer is built in
//     "records": [
//       {"op": "<operation>", "n": <int>, "v": <int>,
//        "median_ns": <int>, "p95_ns": <int>, "bytes": <int>,
//        "samples": <int>},
//       ...
//     ]
//   }
//
// `n` is the operation's natural size parameter (users, gap length, window
// size — 0 when meaningless), `v` the scheme's saturation limit (0 when the
// record is not tied to a scheme instance), `bytes` the wire/payload size the
// record accounts for (0 when timing-only). Pure transmission records carry
// median_ns = p95_ns = 0.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "obs/build_info.h"

namespace dfky::benchjson {

/// True when the driver asked for the fast smoke profile (tiny sizes, few
/// samples) via DFKY_BENCH_SMOKE=1 — used by tools/bench_check.sh.
inline bool smoke() {
  const char* s = std::getenv("DFKY_BENCH_SMOKE");
  return s != nullptr && s[0] == '1';
}

struct Record {
  std::string op;
  std::uint64_t n = 0;
  std::uint64_t v = 0;
  std::uint64_t median_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t samples = 0;
};

/// Wall-clock samples of `fn`, reduced to median/p95. Runs the closure
/// `samples` times (smoke() callers should pass a small count).
struct Timing {
  std::uint64_t median_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t samples = 0;
};

inline Timing time_samples(std::size_t samples,
                           const std::function<void()>& fn) {
  std::vector<std::uint64_t> ns;
  ns.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(ns.begin(), ns.end());
  Timing t;
  t.samples = ns.size();
  if (!ns.empty()) {
    t.median_ns = ns[ns.size() / 2];
    t.p95_ns = ns[std::min(ns.size() - 1, (ns.size() * 95) / 100)];
  }
  return t;
}

/// Collects records and writes BENCH_<name>.json in the working directory.
class Report {
 public:
  explicit Report(std::string bench_name) : name_(std::move(bench_name)) {}

  void add(Record rec) { records_.push_back(std::move(rec)); }

  /// Convenience: time `fn` and file the result in one step.
  void add_timed(std::string op, std::uint64_t n, std::uint64_t v,
                 std::uint64_t bytes, std::size_t samples,
                 const std::function<void()>& fn) {
    const Timing t = time_samples(samples, fn);
    add(Record{std::move(op), n, v, t.median_ns, t.p95_ns, bytes, t.samples});
  }

  /// Writes BENCH_<name>.json; returns false (with a stderr note) on I/O
  /// failure so benches can exit nonzero.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"schema\":\"dfky-bench-v1\",\"bench\":\"%s\",",
                 name_.c_str());
    // Identifies the binary under test (extra key; the schema checker
    // validates required fields only, so dfky-bench-v1 stays compatible).
    const BuildInfo b = build_info();
    std::fprintf(f,
                 "\"build\":{\"version\":\"%s\",\"git\":\"%s\","
                 "\"sanitizer\":\"%s\",\"obs\":true},",
                 b.version.c_str(), b.git.c_str(), b.sanitizer.c_str());
    std::fprintf(f, "\"smoke\":%s,\"obs\":true,\"records\":[",
                 smoke() ? "true" : "false");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "%s\n  {\"op\":\"%s\",\"n\":%llu,\"v\":%llu,"
                   "\"median_ns\":%llu,\"p95_ns\":%llu,\"bytes\":%llu,"
                   "\"samples\":%llu}",
                   i == 0 ? "" : ",", r.op.c_str(),
                   static_cast<unsigned long long>(r.n),
                   static_cast<unsigned long long>(r.v),
                   static_cast<unsigned long long>(r.median_ns),
                   static_cast<unsigned long long>(r.p95_ns),
                   static_cast<unsigned long long>(r.bytes),
                   static_cast<unsigned long long>(r.samples));
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::fclose(f) == 0;
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return ok;
  }

 private:
  std::string name_;
  std::vector<Record> records_;
};

}  // namespace dfky::benchjson
