// Build identity: which binary produced this scrape / BENCH json?
//
// The version and git describe are baked in at configure time (top-level
// CMakeLists); the sanitizer flavour comes from the same build options
// that shaped the binary. Exposed two ways:
//
//   * publish_build_info() sets a constant `dfky_build_info{...} 1` gauge
//     (the standard Prometheus build-info idiom), so every /metrics
//     scrape and --metrics-out snapshot names the binary under test.
//   * benchjson::Report embeds build_info() as a "build" object in every
//     BENCH_*.json, so baseline diffs can tell a sanitizer build from a
//     release build before comparing numbers.
#pragma once

#include <string>

namespace dfky {

struct BuildInfo {
  std::string version;    // project version (DFKY_VERSION)
  std::string git;        // `git describe --always --dirty`, or "unknown"
  std::string sanitizer;  // "none" | "asan-ubsan" | "tsan"
};

BuildInfo build_info();

/// Registers the dfky_build_info gauge (value 1, identity in the labels).
void publish_build_info();

}  // namespace dfky
