#!/usr/bin/env bash
# Build a separate sanitizer tree and run the racy/fault-heavy tests under
# it. Usage:
#
#   tools/sanitize_check.sh [--tsan] [build-dir] [ctest-regex]
#
# Default (ASan+UBSan, -DDFKY_SANITIZE=ON): build-dir = build-asan, regex =
# the fixed-base kernel, Encryptor and generator tables (raw limb
# indexing), the fault matrix over served frames and its line filter, the
# metrics registry, the durable-store crash matrix, the persistence
# corruption fuzz, the reactor, the client library and its frame consumer
# (ClientFrame), the feed-order check, the group-commit queue with the acks
# its committer hands to the reactor, and catch-up: the served Recovery
# cases, the catch-up storm, the revive attack and the system tests over
# served frames.
# --tsan builds -DDFKY_SANITIZE_THREAD=ON instead and runs the
# obs concurrency tests (metrics registry and trace ring hammered from
# many threads), the shard router (concurrent encrypts against the table
# builder, the committer and the epoch barrier), the cluster-simulator
# suites, the reactor, the client library (a sender and a reader thread on
# one connection) and its frame consumer, the feed-order check, the
# group-commit queue (its committer answers requests and finishes their
# traces on its own thread), and the same catch-up tests (the storm's reader threads against the
# reactor and the router's catch_up).
# Pass '.*' to sanitize the whole suite.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

mode=asan
if [ "${1:-}" = "--tsan" ]; then
  mode=tsan
  shift
fi

# The cluster simulator sweeps this many seeds per workload under the
# sanitizers (its in-tree default is 5).
export DFKY_SIM_SEEDS="${DFKY_SIM_SEEDS:-20}"

if [ "$mode" = "tsan" ]; then
  build_dir="${1:-$repo/build-tsan}"
  filter="${2:-ObsConcurrency|ObsCounter|ObsEvents|TraceConcurrency|ShardRouter|SimCluster|SimHealth|SimTrace|SimFailover|SimFeed|Reactor\.|Client(Conn|Pipeline|Prometheus)\.|ClientFrame|RequestHandler\.Feed|GroupCommit|RequestHandler\.AddUserTrace|Recovery|FaultMatrixTest|FaultyBus|FeedStorm|Revive|System\.}"
  sanitize_flag=-DDFKY_SANITIZE_THREAD=ON
  targets=(obs_tests daemon_tests sim_tests failover_sim_tests reactor_tests
    client_tests fault_tests system_tests)
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
else
  build_dir="${1:-$repo/build-asan}"
  filter="${2:-FixedBase|Encryptor|GeneratorTables|FaultyBus|Recovery|FaultMatrixTest|Obs|MemFileIo|FaultyFileIo|StateStore|CrashMatrix|Fsck|PersistenceFuzz|ShardSet|ShardRouter|DaemonProto|Replication|SimCluster|SimHealth|SimTrace|SimFailover|SimFeed|TraceLifecycle|TraceSlow|TraceJson|TraceConcurrency|Term\.|Reactor\.|Client(Conn|Pipeline|Prometheus)\.|ClientFrame|RequestHandler\.Feed|GroupCommit|RequestHandler\.AddUserTrace|FeedStorm|Revive|System\.}"
  sanitize_flag=-DDFKY_SANITIZE=ON
  targets=(unit_crypto_tests fault_tests system_tests obs_tests store_tests core_tests
    daemon_proto_tests daemon_tests sim_tests failover_sim_tests
    reactor_tests client_tests)
  # halt_on_error so a sanitizer report fails the run loudly.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
fi

cmake -S "$repo" -B "$build_dir" "$sanitize_flag" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j"$(nproc)" --target "${targets[@]}"

ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" -R "$filter"
echo "sanitize_check: OK ($mode)"
