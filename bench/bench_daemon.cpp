// E12: daemon group commit — ack throughput under concurrent clients.
// Claim: funneling concurrent mutations through one committer thread that
// batches their WAL records into a single append+fsync amortizes the
// durability cost; at 8 clients the acknowledged-mutation throughput is
// >= 4x the fsync-per-mutation baseline. Measured on a real filesystem
// (the fsync is the whole point), under dfkyd's default snapshot rotation
// rule, so an ack also pays its share of rotations.
//
// E13: sharded daemon — ack throughput scaling across shards. Claim:
// partitioning the store across N shards, each with its own committer
// thread and WAL, parallelizes both the add-user crypto (per-shard Rng)
// and the fsyncs; at 8 clients on >= 4 cores the acknowledged-mutation
// throughput with 4 shards is >= 2x the single-shard figure. The scaling
// is hardware-conditional and the table prints the detected core count:
// on a single core sharding has nothing to parallelize, so the smaller
// per-shard commit batches amortize the fsync worse and sub-1x is the
// expected (and correct) measurement — the regression gate for such hosts
// is the checked-in baseline (tests/bench_baseline_check.sh), not the
// scaling ratio.
// E14: reactor front end — ack throughput and tail latency with a large
// idle-connection herd attached. Claim: because an idle connection costs
// the epoll reactor one fd and a few hundred bytes (not two threads and
// two stacks), active clients' ack throughput and p99 latency stay flat
// as the herd grows 10x; the thread-per-connection front end this
// replaced could not hold the 10k herd at all.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "client/client.h"
#include "core/manager.h"
#include "daemon/daemon.h"
#include "daemon/group_commit.h"
#include "daemon/reactor.h"
#include "daemon/shard.h"
#include "obs/trace.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"

using namespace dfky;

namespace {

benchjson::Report g_report("daemon");

constexpr std::size_t kV = 8;

/// E13–E15 time sharding, the reactor and tracing; rotation is E12's and
/// E11's to measure, so it stays out of their tables.
StoreOptions no_rotation() {
  StoreOptions opts;
  opts.snapshot_every = std::size_t{1} << 30;
  return opts;
}

void remove_store_dir(FileIo& io, const std::string& dir) {
  if (!io.is_dir(dir)) return;
  for (const std::string& name : io.list(dir)) io.remove(dir + "/" + name);
  ::rmdir(dir.c_str());
}

struct RunResult {
  std::uint64_t ns_per_ack = 0;      // median over repetitions
  std::uint64_t ns_per_ack_p95 = 0;  // p95 over repetitions
  std::uint64_t acks = 0;            // per repetition
};

/// `clients` threads, `per_client` durable add_user acks each; per-ack
/// wall time, median over a few repetitions. `grouped` switches between
/// the fsync-per-mutation baseline (a plain mutex around the store) and
/// the daemon's GroupCommit path.
RunResult run_clients(FileIo& io, const std::string& dir,
                      const SystemParams& sp, std::size_t clients,
                      std::size_t per_client, std::size_t reps, bool grouped) {
  ChaChaRng setup_rng(7);
  remove_store_dir(io, dir);
  StateStore store = StateStore::create(io, dir, SecurityManager(sp, setup_rng),
                                        setup_rng);
  ChaChaRng rng(11);
  std::mutex rng_mu;
  const auto one_rep = [&] {
    std::vector<std::thread> threads;
    if (grouped) {
      daemon::StateMutex state_mu;
      daemon::GroupCommit commits(store, state_mu);
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
          for (std::size_t i = 0; i < per_client; ++i) {
            commits.run([&] {
              std::lock_guard lk(rng_mu);
              store.add_user(rng);
            });
          }
        });
      }
      for (std::thread& t : threads) t.join();
      // GroupCommit's destructor drains and turns batching off here.
    } else {
      std::mutex store_mu;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
          for (std::size_t i = 0; i < per_client; ++i) {
            std::scoped_lock lk(store_mu, rng_mu);
            store.add_user(rng);  // durable (fsynced) before it returns
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
  };
  const benchjson::Timing t = benchjson::time_samples(reps, one_rep);
  RunResult r;
  r.acks = clients * per_client;
  r.ns_per_ack = t.median_ns / r.acks;
  r.ns_per_ack_p95 = t.p95_ns / r.acks;
  remove_store_dir(io, dir);
  return r;
}

void remove_shard_root(FileIo& io, const std::string& dir) {
  if (!io.is_dir(dir)) return;
  for (std::size_t i = 0; io.is_dir(dir + "/" + shard_dir_name(i)); ++i) {
    remove_store_dir(io, dir + "/" + shard_dir_name(i));
  }
  ::rmdir(dir.c_str());
}

/// E13: `clients` threads issuing durable add-user acks through a
/// ShardRouter over `shards` stores — the daemon's full routing + per-shard
/// group-commit path, socket-free.
RunResult run_sharded(FileIo& io, const std::string& dir,
                      const SystemParams& sp, std::size_t shards,
                      std::size_t clients, std::size_t per_client,
                      std::size_t reps) {
  ChaChaRng setup_rng(7);
  remove_shard_root(io, dir);
  std::vector<SecurityManager> managers;
  for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, setup_rng);
  daemon::ShardRouter router(
      create_shard_set(io, dir, std::move(managers), setup_rng, no_rotation()),
      [](std::size_t k) { return std::make_unique<ChaChaRng>(11 + k); },
      [] { std::fprintf(stderr, "bench_daemon: commit sync failed\n"); });
  const auto one_rep = [&] {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (std::size_t i = 0; i < per_client; ++i) {
          router.add_user();  // durable on its shard before it returns
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  const benchjson::Timing t = benchjson::time_samples(reps, one_rep);
  RunResult r;
  r.acks = clients * per_client;
  r.ns_per_ack = t.median_ns / r.acks;
  r.ns_per_ack_p95 = t.p95_ns / r.acks;
  router.stop_commits();
  return r;
}

/// E15: the full request path (RequestHandler over a 1-shard router, the
/// same code the socket loop calls) with per-request tracing on vs off.
/// Every request allocates a trace id, stamps eight spans across three
/// threads and files the trace in the ring when traced; the claim is that
/// this costs < 2% of ack throughput, because the expensive part of an ack
/// is the fsync, not the bookkeeping. With DFKY_OBS=OFF both runs compile
/// to the identical untraced path and the overhead reads as noise.
RunResult run_handler(FileIo& io, const std::string& dir,
                      const SystemParams& sp, std::size_t clients,
                      std::size_t per_client, std::size_t reps, bool traced) {
  ChaChaRng setup_rng(7);
  remove_shard_root(io, dir);
  std::vector<SecurityManager> managers;
  managers.emplace_back(sp, setup_rng);
  daemon::ShardRouter router(
      create_shard_set(io, dir, std::move(managers), setup_rng, no_rotation()),
      [](std::size_t k) { return std::make_unique<ChaChaRng>(11 + k); },
      [] { std::fprintf(stderr, "bench_daemon: commit sync failed\n"); });
  daemon::RequestHandler handler(router);
  obs::set_tracing(traced);
  const auto one_rep = [&] {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (std::size_t i = 0; i < per_client; ++i) {
          handler.handle("add-user");
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  const benchjson::Timing t = benchjson::time_samples(reps, one_rep);
  obs::set_tracing(true);
  RunResult r;
  r.acks = clients * per_client;
  r.ns_per_ack = t.median_ns / r.acks;
  r.ns_per_ack_p95 = t.p95_ns / r.acks;
  router.stop_commits();
  remove_shard_root(io, dir);
  return r;
}

struct ReactorResult {
  std::uint64_t ns_per_ack = 0;
  std::uint64_t p99_latency_ns = 0;
  std::uint64_t acks = 0;
  std::size_t idle_held = 0;
};

/// E14: the daemon's real serve path — a Reactor over a listening unix
/// socket, `idle` held-open idle connections, `active` clients each
/// doing `per` request/response add-user roundtrips on its own
/// connection. Reports per-ack wall time across the active phase and
/// the p99 of the individual roundtrip latencies.
ReactorResult run_reactor(FileIo& io, const std::string& dir,
                          const SystemParams& sp, const std::string& sock,
                          std::size_t idle, std::size_t active,
                          std::size_t per) {
  ChaChaRng setup_rng(7);
  remove_shard_root(io, dir);
  std::vector<SecurityManager> managers;
  managers.emplace_back(sp, setup_rng);
  daemon::ShardRouter router(
      create_shard_set(io, dir, std::move(managers), setup_rng, no_rotation()),
      [](std::size_t k) { return std::make_unique<ChaChaRng>(11 + k); },
      [] { std::fprintf(stderr, "bench_daemon: commit sync failed\n"); });
  daemon::RequestHandler handler(router);

  ::unlink(sock.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
  if (lfd < 0 ||
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, SOMAXCONN) != 0) {
    std::fprintf(stderr, "bench_daemon: cannot listen on %s: %s\n",
                 sock.c_str(), std::strerror(errno));
    std::exit(1);
  }
  int wake[2];
  if (::pipe2(wake, O_CLOEXEC) != 0) std::exit(1);

  daemon::ReactorOptions ropts;
  ropts.listen_fd = lfd;
  ropts.wake_fd = wake[0];
  ropts.workers = 8;
  daemon::Reactor reactor(ropts, [&](const std::string& line) {
    const daemon::RequestHandler::Result res = handler.handle(line);
    return daemon::Reactor::Result{res.response, res.shutdown};
  });
  std::thread serving([&] { reactor.run(); });

  // The idle herd: connected, counted by the reactor, then silent.
  std::vector<client::Conn> held;
  held.reserve(idle);
  try {
    while (held.size() < idle) held.emplace_back(sock);
  } catch (const client::ConnError&) {
    // Client- or server-side fd ceiling: report the smaller herd.
  }

  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<std::uint64_t>> lat(active);
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(active);
  for (std::size_t c = 0; c < active; ++c) {
    clients.emplace_back([&, c] {
      lat[c].reserve(per);
      try {
        client::Conn conn(sock);
        for (std::size_t i = 0; i < per; ++i) {
          const auto s = Clock::now();
          conn.request("@" + std::to_string(i).append(" add-user"));
          lat[c].push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - s)
                  .count()));
        }
      } catch (const client::ConnError&) {
        // A lost connection ends this client's samples early.
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const auto wall = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());

  const std::size_t idle_held = held.size();
  held.clear();
  const char b = 1;
  [[maybe_unused]] const ssize_t wn = ::write(wake[1], &b, 1);
  serving.join();
  ::close(wake[0]);
  ::close(wake[1]);
  ::close(lfd);
  ::unlink(sock.c_str());
  router.stop_commits();
  remove_shard_root(io, dir);

  ReactorResult r;
  r.idle_held = idle_held;
  std::vector<std::uint64_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  r.acks = all.size();
  if (!all.empty()) {
    r.ns_per_ack = wall / all.size();
    std::sort(all.begin(), all.end());
    r.p99_latency_ns = all[all.size() * 99 / 100 == all.size()
                              ? all.size() - 1
                              : all.size() * 99 / 100];
  }
  return r;
}

}  // namespace

int main() {
  std::printf("=== E12: daemon group commit (v = %zu, 128-bit test group) ===\n\n",
              kV);
  const std::size_t per_client = benchjson::smoke() ? 4 : 16;
  const std::size_t reps = benchjson::smoke() ? 2 : 3;
  ChaChaRng rng(42);
  const SystemParams sp =
      SystemParams::create(Group(GroupParams::named(ParamId::kTest128)), kV,
                           rng);

  char tmpl[] = "/tmp/dfky_bench_daemon_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "bench_daemon: mkdtemp failed\n");
    return 1;
  }
  RealFileIo io;
  const std::string dir = std::string(tmpl) + "/sys";

  std::printf("%8s %16s %16s %9s\n", "clients", "single-us/ack",
              "grouped-us/ack", "speedup");
  double speedup_at_8 = 0;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const RunResult single =
        run_clients(io, dir, sp, clients, per_client, reps, false);
    const RunResult grouped =
        run_clients(io, dir, sp, clients, per_client, reps, true);
    g_report.add({"ack_single", clients, kV, single.ns_per_ack,
                  single.ns_per_ack_p95, 0, single.acks * reps});
    g_report.add({"ack_grouped", clients, kV, grouped.ns_per_ack,
                  grouped.ns_per_ack_p95, 0, grouped.acks * reps});
    const double speedup = grouped.ns_per_ack == 0
                               ? 0.0
                               : static_cast<double>(single.ns_per_ack) /
                                     static_cast<double>(grouped.ns_per_ack);
    if (clients == 8) speedup_at_8 = speedup;
    std::printf("%8zu %16.1f %16.1f %8.1fx\n", clients,
                static_cast<double>(single.ns_per_ack) / 1e3,
                static_cast<double>(grouped.ns_per_ack) / 1e3, speedup);
  }
  std::printf("\ngroup-commit ack-throughput speedup at 8 clients: %.1fx "
              "(acceptance floor 4x)\n",
              speedup_at_8);

  // E13 runs on a 512-bit group: sharding parallelizes the per-shard
  // committers' add-user crypto alongside their fsyncs, so the workload
  // carries realistic field-arithmetic cost rather than the toy group's.
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\n=== E13: sharded daemon (8 clients, v = %zu, 512-bit group, "
              "%u core(s)) ===\n\n",
              kV, cores);
  const SystemParams sp512 =
      SystemParams::create(Group(GroupParams::named(ParamId::kSec512)), kV,
                           rng);
  const std::size_t sharded_clients = 8;
  const std::string root = std::string(tmpl) + "/shards";
  std::printf("%8s %16s %9s\n", "shards", "sharded-us/ack", "scaling");
  std::uint64_t one_shard_ns = 0;
  double scaling_at_4 = 0;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    const RunResult r = run_sharded(io, root, sp512, shards, sharded_clients,
                                    per_client, reps);
    g_report.add({"ack_sharded", shards, kV, r.ns_per_ack, r.ns_per_ack_p95, 0,
                  r.acks * reps});
    if (shards == 1) one_shard_ns = r.ns_per_ack;
    const double scaling = r.ns_per_ack == 0
                               ? 0.0
                               : static_cast<double>(one_shard_ns) /
                                     static_cast<double>(r.ns_per_ack);
    if (shards == 4) scaling_at_4 = scaling;
    std::printf("%8zu %16.1f %8.1fx\n", shards,
                static_cast<double>(r.ns_per_ack) / 1e3, scaling);
  }
  std::printf("\nsharded ack-throughput scaling at 4 shards / 8 clients: "
              "%.1fx (acceptance floor 2x on >= 4 cores)\n",
              scaling_at_4);
  if (cores < 4) {
    std::printf("NOTE: only %u core(s) detected — the committers cannot run "
                "in parallel here, so the single shard's larger commit "
                "batches win and the floor does not apply; gate this host "
                "with tests/bench_baseline_check.sh instead\n",
                cores);
  }
  remove_shard_root(io, root);

  // E14 is in-process on both ends, so every held connection costs TWO
  // fds here; budget against the raised hard limit and scale the herd
  // down (with a note) if it cannot fit.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &nofile);
    ::getrlimit(RLIMIT_NOFILE, &nofile);
  }
  const std::size_t idle_cap =
      nofile.rlim_cur > 512 ? (static_cast<std::size_t>(nofile.rlim_cur) - 512) / 2
                            : 64;
  std::printf("\n=== E14: reactor front end (idle herd + 4 active clients, "
              "v = %zu, 128-bit group) ===\n\n",
              kV);
  const std::size_t reactor_active = 4;
  const std::size_t reactor_per = benchjson::smoke() ? 25 : 250;
  const std::string rdir = std::string(tmpl) + "/reactor";
  const std::string rsock = std::string(tmpl) + "/reactor.sock";
  std::printf("%10s %12s %14s %14s\n", "idle-conns", "acks", "us/ack",
              "p99-us");
  for (std::size_t idle : benchjson::smoke()
                              ? std::vector<std::size_t>{100, 1000}
                              : std::vector<std::size_t>{1000, 10000}) {
    if (idle > idle_cap) {
      std::printf("NOTE: RLIMIT_NOFILE %llu caps the in-process herd at %zu "
                  "(wanted %zu)\n",
                  static_cast<unsigned long long>(nofile.rlim_cur), idle_cap,
                  idle);
      idle = idle_cap;
    }
    const ReactorResult r = run_reactor(io, rdir, sp, rsock, idle,
                                        reactor_active, reactor_per);
    if (r.idle_held < idle) {
      std::printf("NOTE: herd fell short: held %zu of %zu idle conns\n",
                  r.idle_held, idle);
    }
    g_report.add({"ack_reactor", idle, kV, r.ns_per_ack, r.p99_latency_ns, 0,
                  r.acks});
    std::printf("%10zu %12llu %14.1f %14.1f\n", idle,
                static_cast<unsigned long long>(r.acks),
                static_cast<double>(r.ns_per_ack) / 1e3,
                static_cast<double>(r.p99_latency_ns) / 1e3);
  }
  std::printf("\nreactor ack p99 at the large herd should stay within ~2x of "
              "the small herd's (idle connections are fd-cheap, not "
              "thread-expensive); gate with tests/bench_baseline_check.sh\n");

  // E15 reuses the 128-bit group: the overhead under test is per-request
  // bookkeeping, which a heavier group would only dilute.
  std::printf("\n=== E15: request tracing overhead (8 clients, full request "
              "path) ===\n\n");
  const std::size_t trace_clients = 8;
  const std::string tdir = std::string(tmpl) + "/traced";
  const RunResult untraced =
      run_handler(io, tdir, sp, trace_clients, per_client, reps, false);
  const RunResult traced =
      run_handler(io, tdir, sp, trace_clients, per_client, reps, true);
  g_report.add({"ack_untraced", trace_clients, kV, untraced.ns_per_ack,
                untraced.ns_per_ack_p95, 0, untraced.acks * reps});
  g_report.add({"ack_traced", trace_clients, kV, traced.ns_per_ack,
                traced.ns_per_ack_p95, 0, traced.acks * reps});
  const double overhead =
      untraced.ns_per_ack == 0
          ? 0.0
          : 100.0 * (static_cast<double>(traced.ns_per_ack) -
                     static_cast<double>(untraced.ns_per_ack)) /
                static_cast<double>(untraced.ns_per_ack);
  std::printf("%16s %16s %9s\n", "untraced-us/ack", "traced-us/ack",
              "overhead");
  std::printf("%16.1f %16.1f %8.1f%%\n",
              static_cast<double>(untraced.ns_per_ack) / 1e3,
              static_cast<double>(traced.ns_per_ack) / 1e3, overhead);
  std::printf("\ntracing overhead at %zu clients: %.1f%% (acceptance "
              "ceiling 2%%; smoke runs are fsync-noise dominated — gate "
              "with the checked-in baseline)\n",
              trace_clients, overhead);

  ::rmdir(tmpl);
  return g_report.write() ? 0 : 1;
}
