// dfky_top — terminal dashboard for a running dfkyd (DESIGN.md Sect. 13).
//
// Polls the daemon's loopback observability port (`dfkyd --metrics-port N`)
// and renders, per refresh:
//   * per-verb request latency (count / p50 / p99) from the
//     dfkyd_request_ns histogram buckets on GET /metrics,
//   * the average span breakdown per verb (accept -> ... -> respond) and the
//     slowest captured requests from the GET /trace JSONL feed,
//   * replication role, follower liveness and lag from the repl gauges.
//
// With --iterations 1 it prints one snapshot and exits (no screen clearing),
// which is what the e2e scripts use; interactively it refreshes in place
// every --interval-ms while stdout is a tty.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "daemon/protocol.h"
#include "obs/json.h"

namespace {

using dfky::client::PromSample;
using dfky::json::Value;

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: dfky_top --port N [--host ADDR] [--interval-ms N]\n"
               "               [--iterations N]\n"
               "\n"
               "Dashboard over a dfkyd observability port (--metrics-port):\n"
               "per-verb latency quantiles, trace span breakdowns, slow\n"
               "requests and replication lag. --iterations 0 (default) runs\n"
               "until interrupted; --iterations 1 prints one snapshot (used\n"
               "by scripts). --interval-ms defaults to 1000.\n");
  return out == stdout ? 0 : 2;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "dfky_top: %s\n", msg.c_str());
  std::exit(1);
}

/// Per-verb request histogram rebuilt from the _bucket/_count/_sum samples.
struct VerbHist {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  double count = 0;
  double sum = 0;

  /// Same rank-interpolation rule as Histogram::Snapshot::quantile.
  double quantile(double q) const {
    if (count <= 0) return 0;
    const double rank = q * count;
    double prev_cum = 0, prev_bound = 0;
    for (const auto& [le, cum] : buckets) {
      if (rank <= cum) {
        const double in_bucket = cum - prev_cum;
        if (in_bucket <= 0) return le;
        return prev_bound + (rank - prev_cum) / in_bucket * (le - prev_bound);
      }
      prev_cum = cum;
      prev_bound = le;
    }
    return prev_bound;
  }
};

std::string fmt_ns(double ns) {
  char buf[64];
  if (ns >= 1e9) std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  else if (ns >= 1e6) std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  else if (ns >= 1e3) std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  else std::snprintf(buf, sizeof buf, "%.0fns", ns);
  return buf;
}

void render(const std::string& metrics, const std::string& trace_jsonl) {
  const std::vector<PromSample> samples =
      dfky::client::parse_prometheus(metrics);

  // Replication identity and follower state from the repl gauges.
  std::string role = "unknown";
  double term = -1;            // dfky_repl_term; -1 = not exported
  double watchdog_state = -1;  // dfky_watchdog_state; -1 = no watchdog
  double subscribers = -1;     // dfkyd_feed_subscribers; -1 = no feed
  double feed_frames = -1;     // dfkyd_feed_frames_total
  double feed_shed = -1;       // dfkyd_feed_shed_total
  std::map<std::string, double> follower_live;
  std::map<std::string, double> follower_lag_frames;
  std::map<std::string, VerbHist> verbs;
  for (const PromSample& s : samples) {
    if (s.name == "dfkyd_role" && s.value > 0) {
      const auto it = s.labels.find("role");
      if (it != s.labels.end()) role = it->second;
    } else if (s.name == "dfky_repl_term") {
      term = s.value;
    } else if (s.name == "dfky_watchdog_state") {
      watchdog_state = s.value;
    } else if (s.name == "dfkyd_feed_subscribers") {
      subscribers = s.value;
    } else if (s.name == "dfkyd_feed_frames_total") {
      feed_frames = s.value;
    } else if (s.name == "dfkyd_feed_shed_total") {
      feed_shed = s.value;
    } else if (s.name == "dfkyd_repl_follower_live") {
      const auto it = s.labels.find("follower");
      if (it != s.labels.end()) follower_live[it->second] = s.value;
    } else if (s.name == "dfkyd_repl_lag_frames") {
      const auto it = s.labels.find("follower");
      if (it != s.labels.end()) follower_lag_frames[it->second] += s.value;
    } else if (s.name == "dfkyd_request_ns_bucket") {
      const auto verb = s.labels.find("verb");
      const auto le = s.labels.find("le");
      if (verb == s.labels.end() || le == s.labels.end()) continue;
      if (le->second == "+Inf") continue;  // count covers the tail bucket
      verbs[verb->second].buckets.emplace_back(std::stod(le->second),
                                               s.value);
    } else if (s.name == "dfkyd_request_ns_count") {
      const auto verb = s.labels.find("verb");
      if (verb != s.labels.end()) verbs[verb->second].count = s.value;
    } else if (s.name == "dfkyd_request_ns_sum") {
      const auto verb = s.labels.find("verb");
      if (verb != s.labels.end()) verbs[verb->second].sum = s.value;
    }
  }

  // Span breakdown and slow requests from the /trace JSONL feed. The
  // exporter's bucket lines arrive in ascending `le` order, so the rebuilt
  // vectors are already sorted for quantile().
  struct VerbSpans {
    std::map<std::string, double> span_ns;  // summed across traces
    double total_ns = 0;
    std::size_t traces = 0;
  };
  std::map<std::string, VerbSpans> spans_by_verb;
  struct SlowLine {
    double total_ns = 0;
    std::string verb;
    std::string outcome;
  };
  std::vector<SlowLine> slow;
  std::istringstream tin(trace_jsonl);
  std::string line;
  while (std::getline(tin, line)) {
    if (line.empty()) continue;
    Value v;
    try {
      v = Value::parse(line);
    } catch (...) {
      continue;
    }
    const Value* kind = v.find("kind");
    if (!kind) continue;
    const bool is_slow = kind->as_string() == "slow_trace";
    if (kind->as_string() != "trace" && !is_slow) continue;
    const std::string verb = v.find("verb")->as_string();
    const double total = v.find("total_ns")->as_number();
    if (is_slow) {
      slow.push_back({total, verb, v.find("outcome")->as_string()});
      continue;
    }
    VerbSpans& vs = spans_by_verb[verb];
    ++vs.traces;
    vs.total_ns += total;
    for (const Value& sp : v.find("spans")->as_array()) {
      vs.span_ns[sp.find("span")->as_string()] +=
          sp.find("dur_ns")->as_number();
    }
  }

  // Keep the new identity fields AFTER role= — scripts anchor on the
  // `^dfkyd  role=...` prefix.
  std::printf("dfkyd  role=%s", role.c_str());
  if (term >= 0) std::printf("  term=%.0f", term);
  if (watchdog_state >= 0) {
    static const char* kWatchdog[] = {"idle", "watching", "electing",
                                      "promoted"};
    const int ws = static_cast<int>(watchdog_state);
    std::printf("  watchdog=%s",
                ws >= 0 && ws < 4 ? kWatchdog[ws] : "?");
  }
  if (subscribers >= 0) {
    // Streaming feed (DESIGN.md Sect. 16): live subscriber count, frames
    // fanned out since start, slow subscribers shed.
    std::printf("  subs=%.0f", subscribers);
    if (feed_frames >= 0) std::printf("/%.0f frames", feed_frames);
    if (feed_shed > 0) std::printf(" (%.0f shed)", feed_shed);
  }
  std::printf("  followers:");
  if (follower_live.empty()) std::printf(" none");
  for (const auto& [name, live] : follower_live) {
    const auto lag = follower_lag_frames.find(name);
    std::printf(" %s=%s(lag %.0f)", name.c_str(),
                live > 0 ? "live" : "DEAD",
                lag == follower_lag_frames.end() ? 0.0 : lag->second);
  }
  std::printf("\n\n%-14s %8s %10s %10s\n", "verb", "count", "p50", "p99");
  for (const auto& [verb, h] : verbs) {
    std::printf("%-14s %8.0f %10s %10s\n", verb.c_str(), h.count,
                fmt_ns(h.quantile(0.5)).c_str(),
                fmt_ns(h.quantile(0.99)).c_str());
  }
  if (!spans_by_verb.empty()) {
    std::printf("\nspan breakdown (mean over the trace ring):\n");
    for (const auto& [verb, vs] : spans_by_verb) {
      std::printf("  %-12s (%zu traces, mean %s)\n", verb.c_str(), vs.traces,
                  fmt_ns(vs.total_ns / static_cast<double>(vs.traces))
                      .c_str());
      for (const auto& [span, ns] : vs.span_ns) {
        std::printf("    %-14s %10s %5.1f%%\n", span.c_str(),
                    fmt_ns(ns / static_cast<double>(vs.traces)).c_str(),
                    vs.total_ns > 0 ? 100.0 * ns / vs.total_ns : 0.0);
      }
    }
  }
  if (!slow.empty()) {
    std::printf("\nslow requests (over --trace-slow-us):\n");
    for (const SlowLine& s : slow) {
      std::printf("  %-12s %10s %s\n", s.verb.c_str(),
                  fmt_ns(s.total_ns).c_str(), s.outcome.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using dfky::daemon::parse_u64;

  std::string host = "127.0.0.1";
  int port = -1;
  std::uint64_t interval_ms = 1000;
  std::uint64_t iterations = 0;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") return usage(stdout);
    if (a != "--port" && a != "--host" && a != "--interval-ms" &&
        a != "--iterations") {
      std::fprintf(stderr, "dfky_top: unknown argument %s\n", a.c_str());
      return usage(stderr);
    }
    if (i + 1 == args.size()) {
      std::fprintf(stderr, "dfky_top: %s needs a value\n", a.c_str());
      return usage(stderr);
    }
    const std::string& v = args[++i];
    if (a == "--host") {
      host = v;
      continue;
    }
    const auto n = parse_u64(v);
    if (!n) {
      std::fprintf(stderr, "dfky_top: %s: '%s' is not an unsigned integer\n",
                   a.c_str(), v.c_str());
      return usage(stderr);
    }
    if (a == "--port") {
      if (*n == 0 || *n > 65535) {
        std::fprintf(stderr, "dfky_top: --port: %s is not a port\n",
                     v.c_str());
        return usage(stderr);
      }
      port = static_cast<int>(*n);
    } else if (a == "--interval-ms") {
      interval_ms = *n;
    } else {
      iterations = *n;
    }
  }
  if (port < 0) {
    std::fprintf(stderr, "dfky_top: --port is required\n");
    return usage(stderr);
  }

  const bool clear_screen = ::isatty(STDOUT_FILENO) != 0 && iterations != 1;
  for (std::uint64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::string metrics, trace;
    try {
      metrics = dfky::client::http_get(host, port, "/metrics");
      trace = dfky::client::http_get(host, port, "/trace");
    } catch (const dfky::client::ConnError& e) {
      die(std::string(e.what()) + " (is dfkyd running with --metrics-port?)");
    }
    if (clear_screen) std::printf("\033[H\033[2J");
    render(metrics, trace);
    std::fflush(stdout);
  }
  return 0;
}
