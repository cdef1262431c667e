// dfkyd — serve one deployment (a shard root, written by `dfky_cli init`)
// over a unix socket (DESIGN.md Sect. 10–11).
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: dfkyd <store-dir> --socket PATH [--metrics-port N]\n"
               "             [--trace-slow-us N] [--backlog N]\n"
               "             [--idle-timeout-ms N] [--workers N]\n"
               "             [--busy-queue-limit N]\n"
               "             [--follower] [--replicate-to PATH]...\n"
               "             [--auto-failover]\n"
               "             [--failover-timings LEASE,HB,TIMEOUT,EMIN,EMAX]\n"
               "\n"
               "Serves the store over a newline protocol (see dfky_cli\n"
               "client). <store-dir> is a shard root written by dfky_cli init\n"
               "(shard.0 .. shard.N-1): every shard's LOCK is taken and\n"
               "requests are routed by user id. --metrics-port 0 binds an\n"
               "ephemeral loopback port for GET /metrics and GET /trace; omit\n"
               "the flag to disable both. Requests slower than --trace-slow-us\n"
               "(default 10000; 0 disables) are kept in the slow-request log\n"
               "served by the `trace` verb and GET /trace.\n"
               "\n"
               "Snapshots (DESIGN.md Sect. 9.2): by default a shard rotates\n"
               "its snapshot once its WAL holds 64 records and either its\n"
               "bytes reach the snapshot's or a replay would redo 64*(v+1)\n"
               "public-key slots, so an ack's share of rotation cost does not\n"
               "grow with the user population.\n"
               "\n"
               "Front end (DESIGN.md Sect. 15): connections are served by an\n"
               "epoll reactor; requests execute on --workers threads (default:\n"
               "hardware, clamped to 4..16). --backlog sets the listen(2)\n"
               "backlog (default SOMAXCONN; the kernel clamps to\n"
               "net.core.somaxconn). --idle-timeout-ms closes client\n"
               "connections idle that long (default 0: never).\n"
               "--busy-queue-limit sheds mutations with `err busy` while that\n"
               "many are queued un-acked at the committers (default 1024;\n"
               "0 disables).\n"
               "\n"
               "Replication (DESIGN.md Sect. 12): --follower comes up as a\n"
               "read-only replica (mutations rejected; state advances via\n"
               "repl-append/repl-snap from a primary; `dfky_cli client <sock>\n"
               "promote` flips it to primary). --replicate-to PATH (repeatable)\n"
               "streams this primary's WAL to the follower daemon listening on\n"
               "each PATH; mutations are acknowledged only after every live\n"
               "follower acked them.\n"
               "\n"
               "Self-healing (DESIGN.md Sect. 14): --auto-failover arms\n"
               "lease-fenced failover. Give EVERY node the same symmetric\n"
               "--replicate-to peer list (each node lists every OTHER member).\n"
               "A primary then acks only while a majority of followers holds\n"
               "each batch, followers watchdog the primary and auto-promote\n"
               "the most-caught-up one when it dies, and a revived stale\n"
               "primary is fenced (exits nonzero) instead of splitting\n"
               "history. --failover-timings tunes, in ms: ack lease, heartbeat\n"
               "interval, silence timeout, election delay min, max (defaults\n"
               "750,200,1000,100,400; keep lease <= timeout).\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using dfky::daemon::parse_u64;

  std::vector<std::string> args(argv + 1, argv + argc);
  dfky::daemon::DaemonOptions opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") return usage(stdout);
    if (a == "--follower") {
      opts.follower = true;
      continue;
    }
    if (a == "--auto-failover") {
      opts.auto_failover = true;
      continue;
    }
    if (a == "--failover-timings") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "dfkyd: %s needs a value\n", a.c_str());
        return usage(stderr);
      }
      const std::string& v = args[++i];
      int* const dst[] = {&opts.lease_ms, &opts.hb_interval_ms,
                          &opts.hb_timeout_ms, &opts.election_min_ms,
                          &opts.election_max_ms};
      std::size_t pos = 0;
      bool bad = false;
      for (std::size_t f = 0; f < 5 && !bad; ++f) {
        const std::size_t comma = v.find(',', pos);
        if ((f < 4) != (comma != std::string::npos)) {
          bad = true;
          break;
        }
        const auto n = parse_u64(v.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos));
        if (!n || *n == 0 || *n > 600000) {
          bad = true;
          break;
        }
        *dst[f] = static_cast<int>(*n);
        pos = comma + 1;
      }
      if (bad) {
        std::fprintf(stderr,
                     "dfkyd: --failover-timings wants five positive ms values "
                     "'lease,hb,timeout,emin,emax', got '%s'\n",
                     v.c_str());
        return usage(stderr);
      }
      continue;
    }
    if (a == "--replicate-to") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "dfkyd: %s needs a value\n", a.c_str());
        return usage(stderr);
      }
      opts.replicate_to.push_back(args[++i]);
      continue;
    }
    if (a == "--trace-slow-us") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "dfkyd: %s needs a value\n", a.c_str());
        return usage(stderr);
      }
      const std::string& v = args[++i];
      const auto n = parse_u64(v);
      if (!n) {
        std::fprintf(stderr, "dfkyd: %s: '%s' is not an unsigned integer\n",
                     a.c_str(), v.c_str());
        return usage(stderr);
      }
      dfky::obs::set_slow_threshold_ns(*n * 1000);
      continue;
    }
    if (a == "--socket" || a == "--metrics-port" || a == "--backlog" ||
        a == "--idle-timeout-ms" || a == "--workers" ||
        a == "--busy-queue-limit") {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "dfkyd: %s needs a value\n", a.c_str());
        return usage(stderr);
      }
      const std::string& v = args[++i];
      if (a == "--socket") {
        opts.socket_path = v;
        continue;
      }
      const auto n = parse_u64(v);
      if (!n) {
        std::fprintf(stderr, "dfkyd: %s: '%s' is not an unsigned integer\n",
                     a.c_str(), v.c_str());
        return usage(stderr);
      }
      if (a == "--metrics-port") {
        if (*n > 65535) {
          std::fprintf(stderr, "dfkyd: --metrics-port: %s is not a port\n",
                       v.c_str());
          return usage(stderr);
        }
        opts.metrics_port = static_cast<int>(*n);
      } else if (a == "--backlog") {
        if (*n == 0 || *n > 1000000) {
          std::fprintf(stderr, "dfkyd: --backlog must be in 1..1000000\n");
          return usage(stderr);
        }
        opts.backlog = static_cast<int>(*n);
      } else if (a == "--idle-timeout-ms") {
        if (*n > 86400000) {
          std::fprintf(stderr, "dfkyd: --idle-timeout-ms: too large\n");
          return usage(stderr);
        }
        opts.idle_timeout_ms = static_cast<int>(*n);
      } else if (a == "--workers") {
        if (*n == 0 || *n > 1024) {
          std::fprintf(stderr, "dfkyd: --workers must be in 1..1024\n");
          return usage(stderr);
        }
        opts.workers = static_cast<int>(*n);
      } else {
        opts.busy_queue_limit = static_cast<std::size_t>(*n);
      }
      continue;
    }
    if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "dfkyd: unknown flag %s\n", a.c_str());
      return usage(stderr);
    }
    if (!opts.store_dir.empty()) {
      std::fprintf(stderr, "dfkyd: more than one store directory given\n");
      return usage(stderr);
    }
    opts.store_dir = a;
  }
  if (opts.store_dir.empty() || opts.socket_path.empty()) {
    std::fprintf(stderr, "dfkyd: a store directory and --socket are required\n");
    return usage(stderr);
  }
  if (opts.follower && !opts.replicate_to.empty() && !opts.auto_failover) {
    std::fprintf(stderr,
                 "dfkyd: --follower and --replicate-to are mutually exclusive "
                 "without --auto-failover (a follower becomes a sender only "
                 "after `promote`; with auto-failover the symmetric peer list "
                 "is how a promoted follower finds its followers)\n");
    return usage(stderr);
  }
  if (opts.auto_failover && opts.replicate_to.empty()) {
    std::fprintf(stderr,
                 "dfkyd: --auto-failover needs --replicate-to peers (the "
                 "symmetric cluster member list)\n");
    return usage(stderr);
  }
  if (opts.auto_failover && opts.lease_ms > opts.hb_timeout_ms) {
    std::fprintf(stderr,
                 "dfkyd: --failover-timings: lease (%d) must not exceed the "
                 "silence timeout (%d) — a deposed primary must fence itself "
                 "before any follower campaigns\n",
                 opts.lease_ms, opts.hb_timeout_ms);
    return usage(stderr);
  }

  // Daemon latencies live well under the generic 1us-floor timing buckets;
  // registering sub-microsecond bounds here (before any traffic creates the
  // series) re-buckets every labeled variant without touching call sites.
  dfky::obs::MetricsRegistry::instance().set_default_bounds(
      "dfkyd_request_ns", dfky::obs::Histogram::fast_ns_bounds());
  dfky::obs::MetricsRegistry::instance().set_default_bounds(
      "dfkyd_commit_batch_ns", dfky::obs::Histogram::fast_ns_bounds());
  dfky::obs::MetricsRegistry::instance().set_default_bounds(
      "dfkyd_epoch_barrier_ns", dfky::obs::Histogram::fast_ns_bounds());
  dfky::publish_build_info();

  try {
    dfky::daemon::Daemon daemon(std::move(opts));
    return daemon.run();
  } catch (const dfky::StoreLockedError& e) {
    std::fprintf(stderr, "dfkyd: %s\n", e.what());
    return 1;
  } catch (const dfky::Error& e) {
    std::fprintf(stderr, "dfkyd: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfkyd: internal error: %s\n", e.what());
    return 1;
  }
}
