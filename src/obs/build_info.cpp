#include "obs/build_info.h"

#include "obs/metrics.h"

#ifndef DFKY_VERSION
#define DFKY_VERSION "0.0.0"
#endif
#ifndef DFKY_GIT_DESC
#define DFKY_GIT_DESC "unknown"
#endif

namespace dfky {

BuildInfo build_info() {
  BuildInfo b;
  b.version = DFKY_VERSION;
  b.git = DFKY_GIT_DESC;
#if defined(DFKY_BUILD_TSAN)
  b.sanitizer = "tsan";
#elif defined(DFKY_BUILD_ASAN)
  b.sanitizer = "asan-ubsan";
#else
  b.sanitizer = "none";
#endif
  return b;
}

void publish_build_info() {
  const BuildInfo b = build_info();
  obs::gauge("dfky_build_info", {{"version", b.version},
                                 {"git", b.git},
                                 {"sanitizer", b.sanitizer},
                                 {"obs", "on"}})
      .set(1);
}

}  // namespace dfky
