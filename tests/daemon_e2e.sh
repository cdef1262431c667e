#!/usr/bin/env bash
# End-to-end exercise of dfkyd: store locking against concurrent opens,
# concurrent clients through the group-commit queue, the /metrics endpoint,
# SIGTERM graceful shutdown, SIGKILL crash-recovery with every acknowledged
# mutation intact, a real-process primary/follower failover (SIGKILL the
# primary mid-load, promote the follower, client retry masks the gap), and a
# three-node self-healing cluster: --auto-failover elects and promotes a
# follower after SIGKILLing the primary with no operator in the loop, and a
# revived ex-primary starts fenced and re-seeds from the successor.
# Observability surfaces ride the same daemons: the health verb's verdict
# and exit code, GET /trace, the slow-request log under an armed fsync
# stall, and a one-frame dfky_top render.
#
#   daemon_e2e.sh <dfkyd> <dfky_cli> [<dfky_fsck>] [<dfky_top>]
set -euo pipefail

DFKYD="$1"
CLI="$2"
FSCK="${3:-}"
TOP="${4:-}"
WORK="$(mktemp -d)"
PID=""
SPID=""
RPID=""
FPID=""
APID=""
BPID=""
CPID=""
UPID=""
DPID=""
HOLDER=""
cleanup() {
  set +e  # a pid that already exited must not abort the rest of the cleanup
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null
  [ -n "$SPID" ] && kill -9 "$SPID" 2>/dev/null
  [ -n "$RPID" ] && kill -9 "$RPID" 2>/dev/null
  [ -n "$FPID" ] && kill -9 "$FPID" 2>/dev/null
  [ -n "$APID" ] && kill -9 "$APID" 2>/dev/null
  [ -n "$BPID" ] && kill -9 "$BPID" 2>/dev/null
  [ -n "$CPID" ] && kill -9 "$CPID" 2>/dev/null
  [ -n "$UPID" ] && kill -9 "$UPID" 2>/dev/null
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  [ -n "$HOLDER" ] && kill -9 "$HOLDER" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

fail() { echo "daemon_e2e: $1" >&2; exit 1; }

SOCK="$WORK/dfkyd.sock"

start_daemon() {
  : > dfkyd.log
  "$DFKYD" store.d --socket "$SOCK" --metrics-port 0 >> dfkyd.log 2>&1 &
  PID=$!
  for _ in $(seq 1 200); do
    grep -q 'dfkyd: ready' dfkyd.log 2>/dev/null && return 0
    kill -0 "$PID" 2>/dev/null || fail "daemon died at startup: $(cat dfkyd.log)"
    sleep 0.05
  done
  fail "daemon never printed 'dfkyd: ready'"
}

# ---- flag validation happens before anything touches the store ----------------
if "$DFKYD" store.d 2>err.txt; then fail "dfkyd without --socket exited 0"; fi
if "$DFKYD" store.d --socket "$SOCK" --metrics-port banana 2>/dev/null; then
  fail "dfkyd accepted a non-numeric metrics port"
fi
if "$DFKYD" store.d --socket "$SOCK" --backlog 0 2>/dev/null; then
  fail "dfkyd accepted --backlog 0"
fi
if "$DFKYD" store.d --socket "$SOCK" --workers 0 2>/dev/null; then
  fail "dfkyd accepted --workers 0"
fi
if "$DFKYD" store.d --socket "$SOCK" --snapshot-every 5 2>/dev/null; then
  fail "dfkyd accepted the removed --snapshot-every flag"
fi
[ ! -d store.d ] || fail "a rejected invocation created the store dir"

"$CLI" init store.d --v 4 --group test128 >/dev/null
# A store at a directory's top level is not a deployment: refused, and the
# message names the way out.
cp -r store.d/shard.0 single.d
if "$DFKYD" single.d --socket "$WORK/single.sock" >single.log 2>&1; then
  fail "dfkyd served a top-level store"
fi
grep -q 'dfky_cli init' single.log \
  || fail "dfkyd on a top-level store: message names no way out: $(cat single.log)"
start_daemon

# ---- the daemon's lock shuts everyone else out --------------------------------
wal_sum_before=$(cat store.d/shard.0/wal.* | cksum)
if "$CLI" status store.d >/dev/null 2>err.txt; then
  fail "CLI opened a daemon-locked store"
fi
grep -q 'is locked by pid' err.txt || fail "lock error unclear: $(cat err.txt)"
if "$DFKYD" store.d --socket "$WORK/second.sock" >second.log 2>&1; then
  fail "second dfkyd on the same store exited 0"
fi
grep -q 'is locked by pid' second.log || fail "second dfkyd: unclear error"
[ "$(cat store.d/shard.0/wal.* | cksum)" = "$wal_sum_before" ] \
  || fail "a locked-out process modified the WAL"

# ---- concurrent clients, all acks durable -------------------------------------
"$CLI" client "$SOCK" ping | grep -q "pid: $PID" || fail "ping pid mismatch"
pids=()
for i in $(seq 0 7); do
  "$CLI" client "$SOCK" add "u$i.key" >/dev/null 2>&1 &
  pids+=($!)
done
for p in "${pids[@]}"; do
  wait "$p" || fail "a concurrent add failed"
done
for i in $(seq 0 7); do [ -s "u$i.key" ] || fail "u$i.key missing"; done
"$CLI" client "$SOCK" status | grep -q 'active: 8' || fail "not 8 active users"

# ---- the full lifecycle through the socket ------------------------------------
printf 'the midnight broadcast' > payload.bin
"$CLI" client "$SOCK" encrypt payload.bin b1.bin >/dev/null
[ "$("$CLI" decrypt u0.key b1.bin)" = "the midnight broadcast" ] \
  || fail "daemon-issued key cannot open daemon-encrypted content"

# The concurrent adds race for ids, so revoke a user whose id we pinned down.
VICTIM=$("$CLI" client "$SOCK" add victim.key \
  | sed -n 's/^added user #\([0-9]*\).*/\1/p')
[ -n "$VICTIM" ] || fail "client add did not report the new user id"
"$CLI" client "$SOCK" revoke "$VICTIM" >/dev/null
"$CLI" client "$SOCK" encrypt payload.bin b2.bin >/dev/null
if "$CLI" decrypt victim.key b2.bin >/dev/null 2>&1; then
  fail "revoked key still decrypts"
fi

"$CLI" client "$SOCK" new-period --reset-out dnp >/dev/null
[ -f dnp.0.bin ] || fail "new-period emitted no bundle file"
"$CLI" apply-reset u0.key dnp.0.bin >/dev/null
"$CLI" client "$SOCK" encrypt payload.bin b3.bin >/dev/null
[ "$("$CLI" decrypt u0.key b3.bin)" = "the midnight broadcast" ] \
  || fail "caught-up key cannot decrypt after the daemon's new-period"
"$CLI" client "$SOCK" status | grep -q 'period: 1' || fail "period not advanced"

# Malformed requests get errors, not a dead daemon.
if "$CLI" client "$SOCK" revoke 999 >/dev/null 2>&1; then
  fail "revoking an unknown user exited 0"
fi
"$CLI" client "$SOCK" ping >/dev/null || fail "daemon down after a bad request"

# ---- GET /metrics on the loopback port ----------------------------------------
PORT=$(sed -n 's|.*http://127.0.0.1:\([0-9]*\)/metrics.*|\1|p' dfkyd.log)
[ -n "$PORT" ] || fail "daemon never announced a metrics port"

# A scraper that connects and sends nothing must not wedge the daemon:
# requests on the unix socket keep being served while it stalls.
exec 4<>"/dev/tcp/127.0.0.1/$PORT"
"$CLI" client "$SOCK" ping >/dev/null \
  || fail "daemon wedged by a stalled metrics connection"
exec 4<&- 4>&-

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > metrics.txt
exec 3<&- 3>&-
grep -q '200 OK' metrics.txt || fail "metrics endpoint did not answer 200"
# The commit counters carry a shard label even on a one-shard root.
grep -Eq 'dfkyd_commit_batches_total(\{[^}]*\})? [1-9]' metrics.txt \
  || fail "metrics: no commit batches counted"

# ---- scraper flood: the connection cap sheds, the daemon keeps serving --------
# 40 scrapers that connect and go silent: the reactor holds the first 32
# (the default cap), rejects the rest outright, and never spawns a thread
# or stalls the request path for any of them.
FLOOD_FDS=()
for _ in $(seq 1 40); do
  if exec {mfd}<>"/dev/tcp/127.0.0.1/$PORT"; then
    FLOOD_FDS+=("$mfd")
  fi
done
[ "${#FLOOD_FDS[@]}" -ge 40 ] || fail "scraper flood: not all connects landed"
"$CLI" client "$SOCK" ping >/dev/null \
  || fail "daemon wedged by a metrics scraper flood"
for mfd in "${FLOOD_FDS[@]}"; do
  exec {mfd}<&- || true
done
# With the flood gone the slots free up and a real scrape works again; a
# rejected-over-cap connection must have been counted.
flood_ok=0
for _ in $(seq 1 100); do
  if exec 3<>"/dev/tcp/127.0.0.1/$PORT"; then
    printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
    cat <&3 > flood_metrics.txt || true
    exec 3<&- 3>&-
    grep -q '200 OK' flood_metrics.txt && { flood_ok=1; break; }
  fi
  sleep 0.05
done
[ "$flood_ok" = 1 ] || fail "metrics unreachable after the scraper flood"
grep -Eq 'dfkyd_metrics_rejected_total(\{[^}]*\})? [1-9]' flood_metrics.txt \
  || fail "scraper flood: no over-cap rejections counted"

# ---- health: a machine-checkable verdict, exit status to match ----------------
"$CLI" client "$SOCK" health > health.txt \
  || fail "healthy daemon's health verb exited non-zero"
grep -q '^verdict: ok' health.txt \
  || fail "health verdict wrong: $(cat health.txt)"

# ---- GET /trace serves the same JSONL the `trace` verb returns ----------------
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /trace HTTP/1.0\r\n\r\n' >&3
cat <&3 > trace_http.txt
exec 3<&- 3>&-
grep -q '200 OK' trace_http.txt || fail "trace endpoint did not answer 200"
grep -q '"kind":"trace"' trace_http.txt \
  || fail "GET /trace carries no trace records"
"$CLI" client "$SOCK" trace > trace_cli.txt || fail "trace verb failed"
grep -q '"verb":"add-user"' trace_cli.txt \
  || fail "trace verb output misses the adds we just ran"

# ---- dfky_top renders one frame from /metrics + /trace ------------------------
if [ -n "$TOP" ]; then
  "$TOP" --port "$PORT" --iterations 1 > top.txt \
    || fail "dfky_top exited nonzero"
  grep -q '^dfkyd  role=primary' top.txt \
    || fail "dfky_top header unrecognizable: $(head -1 top.txt)"
  grep -q 'add-user' top.txt || fail "dfky_top table misses add-user"
  # The encrypts above split their time into lock wait and the seal.
  grep -q '^    lock_wait ' top.txt || fail "dfky_top shows no lock_wait span"
  grep -q '^    crypto ' top.txt || fail "dfky_top shows no crypto span"
fi

# ---- streaming feed: live subscribe, replay catch-up, the storm client --------
# A held connection upgraded with `subscribe` gets every committed
# new-period pushed as one `bcast` line; --count 2 exits after two frames.
"$CLI" client "$SOCK" subscribe --count 2 > sublog.txt &
UPID=$!
for _ in $(seq 1 200); do
  grep -q 'subscribed period=' sublog.txt 2>/dev/null && break
  kill -0 "$UPID" 2>/dev/null || fail "subscriber died before the ack: $(cat sublog.txt)"
  sleep 0.05
done
grep -q 'subscribed period=' sublog.txt || fail "subscribe never acknowledged"
"$CLI" client "$SOCK" new-period >/dev/null
"$CLI" client "$SOCK" new-period >/dev/null
rc=0; wait "$UPID" || rc=$?
UPID=""
[ "$rc" = 0 ] || fail "subscriber exited $rc: $(cat sublog.txt)"
[ "$(grep -c '^bcast new-period ' sublog.txt)" = 2 ] \
  || fail "subscriber saw the wrong frames: $(cat sublog.txt)"

# Catch-up storm: 200 receivers park on the CURRENT period, two more
# epochs commit, then all 200 subscribe from the stale period at once and
# must replay the gap before going live. recovered= must equal the herd.
"$CLI" client "$SOCK" storm --receivers 200 --periods 2 --workers 4 \
  > storm.txt || fail "storm client failed: $(cat storm.txt)"
grep -q 'recovered=200' storm.txt \
  || fail "storm left receivers behind: $(cat storm.txt)"
grep -q ' failed=0' storm.txt || fail "storm receivers failed: $(cat storm.txt)"

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > metrics_feed.txt
exec 3<&- 3>&-
grep -Eq 'dfkyd_feed_frames_total [1-9]' metrics_feed.txt \
  || fail "metrics: no feed frames counted after the broadcasts"
grep -Eq 'dfkyd_feed_replayed_total [1-9]' metrics_feed.txt \
  || fail "metrics: no feed replays counted after the storm"
FEED_PERIOD=$("$CLI" client "$SOCK" status | sed -n 's/^period: //p')

# ---- SIGTERM: drain, final snapshot, release the lock, exit 0 -----------------
kill -TERM "$PID"
rc=0; wait "$PID" || rc=$?
PID=""
[ "$rc" = 0 ] || fail "SIGTERM shutdown exited $rc"
grep -q 'shutdown complete' dfkyd.log || fail "no shutdown message"
[ ! -e "$SOCK" ] || fail "socket file left behind"
"$CLI" status store.d > offline_status.txt \
  || fail "store still locked after shutdown"
if [ -n "$FSCK" ]; then
  "$FSCK" store.d >/dev/null || fail "fsck dirty after graceful shutdown"
fi

# ---- SIGKILL mid-load: every acked mutation survives the restart --------------
start_daemon
# Offline `status` and `client status` read the released store alike: both
# run the same request through the same handler.
"$CLI" client "$SOCK" status > served_status.txt
for f in period active revoked; do
  v=$(sed -n "s/^$f: //p" offline_status.txt)
  [ -n "$v" ] || fail "offline status has no $f: $(cat offline_status.txt)"
  [ "$v" = "$(sed -n "s/^$f: //p" served_status.txt)" ] \
    || fail "offline and served status disagree on $f"
done
users_before=$("$CLI" client "$SOCK" status | sed -n 's/^active: //p')
: > acked.txt
pids=()
for i in $(seq 1 16); do
  ( "$CLI" client "$SOCK" add "k$i.key" >/dev/null 2>&1 && echo "$i" >> acked.txt ) &
  pids+=($!)
done
sleep 0.2
kill -9 "$PID"
# The restart takes over the dead daemon's lock by noticing its pid is
# gone; poll the pid out of existence first or the takeover can race the
# kernel still tearing the process down.
for _ in $(seq 1 100); do kill -0 "$PID" 2>/dev/null || break; sleep 0.05; done
PID=""
for p in "${pids[@]}"; do wait "$p" || true; done
acked=$(wc -l < acked.txt)

start_daemon   # open() repairs any torn batch tail under the lock
users_after=$("$CLI" client "$SOCK" status | sed -n 's/^active: //p')
recovered=$((users_after - users_before))
[ "$recovered" -ge "$acked" ] \
  || fail "SIGKILL lost acked mutations: acked $acked, recovered $recovered"

# `shutdown` over the socket behaves like SIGTERM.
"$CLI" client "$SOCK" shutdown >/dev/null || fail "shutdown request failed"
rc=0; wait "$PID" || rc=$?
PID=""
[ "$rc" = 0 ] || fail "socket shutdown exited $rc"
if [ -n "$FSCK" ]; then
  "$FSCK" store.d >/dev/null || fail "fsck dirty after crash recovery cycle"
fi
"$CLI" status store.d | grep -q "period: *$FEED_PERIOD" \
  || fail "state lost across restarts"

# ---- slow-request capture: a stalled fsync lands in the slow log --------------
# DFKYD_TEST_FSYNC_STALL_US delays every fsync inside the daemon; with the
# slow threshold well below the stall, the mutation must surface as a
# slow_trace that attributes the time to its fsync span (DESIGN.md 13.3).
"$CLI" init slow.d --v 4 --group test128 >/dev/null
: > slow.log
DFKYD_TEST_FSYNC_STALL_US=20000 "$DFKYD" slow.d --socket "$WORK/slow.sock" \
  --trace-slow-us 5000 >> slow.log 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  grep -q 'dfkyd: ready' slow.log 2>/dev/null && break
  kill -0 "$PID" 2>/dev/null || fail "stalled daemon died: $(cat slow.log)"
  sleep 0.05
done
grep -q 'dfkyd: ready' slow.log || fail "stalled daemon never ready"
grep -q 'TEST fsync stall armed' slow.log || fail "fsync stall not armed"
"$CLI" client "$WORK/slow.sock" add slow_u.key >/dev/null \
  || fail "add against the stalled daemon failed"
"$CLI" client "$WORK/slow.sock" trace > slow_trace.txt \
  || fail "trace verb failed on the stalled daemon"
grep -q '"kind":"slow_trace".*"verb":"add-user".*"span":"fsync"' \
  slow_trace.txt || fail "stalled add-user missing from the slow log"
"$CLI" client "$WORK/slow.sock" shutdown >/dev/null \
  || fail "stalled daemon shutdown failed"
rc=0; wait "$PID" || rc=$?
PID=""
[ "$rc" = 0 ] || fail "stalled daemon shutdown exited $rc"

# ---- fd exhaustion: EMFILE sheds new connections, never kills the daemon ------
# The daemon runs with RLIMIT_NOFILE clamped to 64; a client herd holds
# more connections than that leaves room for. accept() hitting EMFILE must
# shed (reserve-fd accept-then-close with `err busy`, log once, back off) —
# not exit, not spin — and serve normally once the herd drains.
"$CLI" init fe.d --v 4 --group test128 >/dev/null
FESOCK="$WORK/fe.sock"
: > fe.log
( ulimit -n 64 && exec "$DFKYD" fe.d --socket "$FESOCK" ) >> fe.log 2>&1 &
PID=$!
for _ in $(seq 1 200); do
  grep -q 'dfkyd: ready' fe.log 2>/dev/null && break
  kill -0 "$PID" 2>/dev/null || fail "clamped daemon died at startup: $(cat fe.log)"
  sleep 0.05
done
grep -q 'dfkyd: ready' fe.log || fail "clamped daemon never ready"
"$CLI" client "$FESOCK" soak --idle 60 --active 0 --hold-ms 2000 \
  > fe_soak.txt 2>&1 &
SOAK=$!
for _ in $(seq 1 200); do
  grep -q 'out of file descriptors' fe.log 2>/dev/null && break
  sleep 0.05
done
grep -q 'out of file descriptors' fe.log \
  || fail "EMFILE never reported: $(tail -5 fe.log)"
kill -0 "$PID" 2>/dev/null || fail "daemon died under fd exhaustion"
wait "$SOAK" || true
"$CLI" client "$FESOCK" ping >/dev/null \
  || fail "daemon not serving after the fd-exhaustion herd drained"
"$CLI" client "$FESOCK" shutdown >/dev/null \
  || fail "clamped daemon shutdown failed"
rc=0; wait "$PID" || rc=$?
PID=""
[ "$rc" = 0 ] || fail "clamped daemon shutdown exited $rc"

# ---- 1k idle connections plus active pipelined load through the reactor -------
# The herd scales with the hard fd limit (each side needs IDLE fds plus
# slack), capped at the 1000 the reactor must hold without breaking a sweat.
HARD=$(ulimit -Hn); [ "$HARD" = unlimited ] && HARD=1048576
IDLE=1000
[ $((HARD / 2 - 100)) -lt "$IDLE" ] && IDLE=$((HARD / 2 - 100))
if [ "$IDLE" -ge 100 ]; then
  "$CLI" init soakst.d --v 4 --group test128 >/dev/null
  SKSOCK="$WORK/soak.sock"
  : > soakd.log
  "$DFKYD" soakst.d --socket "$SKSOCK" --metrics-port 0 \
    --idle-timeout-ms 60000 --workers 8 >> soakd.log 2>&1 &
  PID=$!
  for _ in $(seq 1 200); do
    grep -q 'dfkyd: ready' soakd.log 2>/dev/null && break
    kill -0 "$PID" 2>/dev/null || fail "soak daemon died: $(cat soakd.log)"
    sleep 0.05
  done
  grep -q 'dfkyd: ready' soakd.log || fail "soak daemon never ready"
  SKPORT=$(sed -n 's|.*http://127.0.0.1:\([0-9]*\)/metrics.*|\1|p' soakd.log)
  "$CLI" client "$SKSOCK" soak --idle "$IDLE" --active 8 --per 50 \
    --hold-ms 3000 > soak_out.txt &
  SOAK=$!
  # While the herd is held, the conns gauge on /metrics must see it.
  if [ -n "$SKPORT" ]; then
    seen_conns=0
    for _ in $(seq 1 100); do
      if exec 3<>"/dev/tcp/127.0.0.1/$SKPORT"; then
        printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
        cat <&3 > soak_metrics.txt || true
        exec 3<&- 3>&-
        conns=$(sed -n 's/^dfkyd_conns \([0-9]*\)$/\1/p' soak_metrics.txt)
        [ -n "$conns" ] && [ "$conns" -ge "$IDLE" ] && { seen_conns=1; break; }
      fi
      sleep 0.05
    done
    [ "$seen_conns" = 1 ] \
      || fail "dfkyd_conns never reached the $IDLE-conn herd"
  fi
  wait "$SOAK" || fail "idle-herd soak reported errors: $(cat soak_out.txt)"
  grep -q "soak: $IDLE idle conn(s) held (0 refused), 8 worker(s) x 50" \
    soak_out.txt || fail "soak summary wrong: $(cat soak_out.txt)"
  grep -q '400 answered, 0 error(s)' soak_out.txt \
    || fail "soak lost responses: $(cat soak_out.txt)"
  "$CLI" client "$SKSOCK" shutdown >/dev/null || fail "soak shutdown failed"
  rc=0; wait "$PID" || rc=$?
  PID=""
  [ "$rc" = 0 ] || fail "soak daemon shutdown exited $rc"
fi

# =========================== sharded deployments ===============================
SSOCK="$WORK/sharded.sock"

start_sharded() {
  : > sharded.log
  "$DFKYD" shards.d --socket "$SSOCK" >> sharded.log 2>&1 &
  SPID=$!
  for _ in $(seq 1 200); do
    grep -q 'dfkyd: ready' sharded.log 2>/dev/null && return 0
    kill -0 "$SPID" 2>/dev/null \
      || fail "sharded daemon died at startup: $(cat sharded.log)"
    sleep 0.05
  done
  fail "sharded daemon never printed 'dfkyd: ready'"
}

sharded_field() {  # sharded_field <field>: read one field off client status
  "$CLI" client "$SSOCK" status | sed -n "s/^$1: //p"
}

"$CLI" init shards.d --v 4 --group test128 --shards 3 \
  | grep -q '(3 shards)' || fail "init --shards 3 did not report 3 shards"
for i in 0 1 2; do
  [ -d "shards.d/shard.$i" ] || fail "shard.$i directory missing"
done
"$CLI" status shards.d | grep -q 'shards: *3' \
  || fail "offline status does not recognize the shard set"

# ---- one locked shard aborts the whole-daemon startup (all-or-nothing) --------
# The holder takes shard.1's LOCK with flock(1) on an fd that the sleep it
# execs into keeps open; killing that pid releases the lock.
( exec 9>>shards.d/shard.1/LOCK; /usr/bin/flock -n 9 && : > holder.ready \
    && exec sleep 60 ) &
HOLDER=$!
for _ in $(seq 1 200); do [ -e holder.ready ] && break; sleep 0.05; done
[ -e holder.ready ] || fail "flock never took shard.1's LOCK"
if "$DFKYD" shards.d --socket "$SSOCK" > sharded.log 2>&1; then
  fail "sharded dfkyd started despite shard.1 being locked"
fi
grep -q 'is locked by pid' sharded.log \
  || fail "sharded lock-out error unclear: $(cat sharded.log)"
kill -TERM "$HOLDER"; wait "$HOLDER" 2>/dev/null || true
HOLDER=""

# The failed attempt must have unwound the locks it took on shard.0/shard.2.
start_sharded
grep -q 'shard set with 3 shards' sharded.log \
  || fail "daemon did not announce the shard set"
[ "$(sharded_field shards)" = 3 ] || fail "client status: wrong shard count"
[ "$(sharded_field periods)" = "0,0,0" ] || fail "shards not all at period 0"

# ---- round-robin adds land on all shards, ids name their shard ----------------
for i in $(seq 0 5); do
  "$CLI" client "$SSOCK" add "s$i.key" >/dev/null || fail "sharded add failed"
done
[ "$(sharded_field active)" = 6 ] || fail "not 6 active users on the shard set"

# ---- pipelined client: out-of-order completion, in-order output ---------------
{ for _ in $(seq 1 4); do printf 'ping\nstatus\n'; done; } > pipe_in.txt
"$CLI" client "$SSOCK" pipeline --window 4 < pipe_in.txt > pipe_out.txt \
  || fail "pipelined client exited nonzero"
grep -q 'pipelined 8 request(s), window 4, 0 error(s)' pipe_out.txt \
  || fail "pipeline summary wrong: $(tail -1 pipe_out.txt)"
idx=$(sed -n 's/^\[\([0-9]*\)\].*/\1/p' pipe_out.txt | tr '\n' ' ')
[ "$idx" = "0 1 2 3 4 5 6 7 " ] \
  || fail "pipelined responses out of input order: $idx"
# An err reply is reported per-request and in the exit status, without
# tearing down the rest of the window.
if printf 'ping\nbogus\nping\n' \
    | "$CLI" client "$SSOCK" pipeline --window 2 > pipe_err.txt; then
  fail "pipeline with an err reply exited 0"
fi
grep -q 'pipelined 3 request(s), window 2, 1 error(s)' pipe_err.txt \
  || fail "pipeline error accounting wrong: $(tail -1 pipe_err.txt)"

# ---- shard-targeted encrypt and the cross-shard new-period --------------------
SVICTIM=$("$CLI" client "$SSOCK" add svictim.key \
  | sed -n 's/^added user #\([0-9]*\).*/\1/p')
[ -n "$SVICTIM" ] || fail "sharded add did not report the user id"
VSHARD=$((SVICTIM % 3))
"$CLI" client "$SSOCK" encrypt payload.bin sb1.bin --shard "$VSHARD" >/dev/null
[ "$("$CLI" decrypt svictim.key sb1.bin)" = "the midnight broadcast" ] \
  || fail "sharded key cannot open its own shard's broadcast"
"$CLI" client "$SSOCK" new-period --reset-out snp >/dev/null
for i in 0 1 2; do
  [ -f "snp.$i.bin" ] || fail "cross-shard new-period: bundle $i missing"
done
[ "$(sharded_field periods)" = "1,1,1" ] \
  || fail "new-period left shards on different epochs"
"$CLI" apply-reset svictim.key snp.$VSHARD.bin >/dev/null \
  || fail "shard bundle does not apply to its shard's key"
"$CLI" client "$SSOCK" encrypt payload.bin sb2.bin --shard "$VSHARD" >/dev/null
[ "$("$CLI" decrypt svictim.key sb2.bin)" = "the midnight broadcast" ] \
  || fail "caught-up sharded key cannot decrypt after the epoch barrier"

# ---- SIGKILL mid cross-shard new-period: one consistent epoch -----------------
users_before=$(sharded_field active)
( while "$CLI" client "$SSOCK" new-period >/dev/null 2>&1; do :; done ) &
NP_LOOP=$!
sleep 0.3
kill -9 "$SPID"
# As above: let the killed daemon's pid disappear before the lock takeover.
for _ in $(seq 1 100); do kill -0 "$SPID" 2>/dev/null || break; sleep 0.05; done
SPID=""
wait "$NP_LOOP" 2>/dev/null || true

start_sharded
periods=$(sharded_field periods)
[ "$(echo "$periods" | tr ',' '\n' | sort -u | wc -l)" = 1 ] \
  || fail "SIGKILL mid new-period left mixed epochs: $periods"
[ "$(sharded_field active)" = "$users_before" ] \
  || fail "SIGKILL mid new-period lost acked users"

"$CLI" client "$SSOCK" shutdown >/dev/null || fail "sharded shutdown failed"
rc=0; wait "$SPID" || rc=$?
SPID=""
[ "$rc" = 0 ] || fail "sharded socket shutdown exited $rc"
if [ -n "$FSCK" ]; then
  "$FSCK" shards.d > fsck_shards.txt || fail "fsck dirty on the shard set"
  grep -q 'shard set with 3 shard(s)' fsck_shards.txt \
    || fail "fsck did not recognize the shard set"
  grep -q 'all shards at period' fsck_shards.txt \
    || fail "fsck sees an epoch spread after recovery"
fi

# ---- drifted shards: `subscribe from` is answered per shard ------------------
# Saturating revokes roll one shard at a time. With v = 2, revoking the 40
# even (shard 0) ids rolls shard 0 to period 19 while shard 1 stays at 0:
# shard 0's 16-bundle archive no longer holds period 1, shard 1 missed
# nothing. A subscribe from 0 is still answered, carrying shard 0's signed
# eviction verdict, and the stream goes live.
DSOCK="$WORK/drift.sock"
"$CLI" init drift.d --v 2 --group test128 --shards 2 >/dev/null
"$DFKYD" drift.d --socket "$DSOCK" > drift.log 2>&1 &
DPID=$!
for _ in $(seq 1 200); do
  grep -q 'dfkyd: ready' drift.log 2>/dev/null && break
  kill -0 "$DPID" 2>/dev/null || fail "drift daemon died: $(cat drift.log)"
  sleep 0.05
done
for _ in $(seq 1 80); do echo add-user; done \
  | "$CLI" client "$DSOCK" pipeline --window 8 >/dev/null \
  || fail "drift adds failed"
"$CLI" client "$DSOCK" revoke $(seq -s ' ' 0 2 78) --reset-out drift \
  >/dev/null || fail "drift revokes failed"
[ "$("$CLI" client "$DSOCK" status | sed -n 's/^periods: //p')" = "19,0" ] \
  || fail "revokes did not drift the shards: $("$CLI" client "$DSOCK" status)"
"$CLI" client "$DSOCK" subscribe --from-period 0 --count 1 > driftsub.txt &
UPID=$!
for _ in $(seq 1 200); do
  grep -q 'subscribed period=' driftsub.txt 2>/dev/null && break
  kill -0 "$UPID" 2>/dev/null \
    || fail "subscribe from 0 on drifted shards refused: $(cat driftsub.txt)"
  sleep 0.05
done
grep -Eq '^subscribed period=19 replayed=0 evicted=[0-9a-f]+$' driftsub.txt \
  || fail "drifted subscribe answer wrong: $(cat driftsub.txt)"
"$CLI" client "$DSOCK" new-period >/dev/null
rc=0; wait "$UPID" || rc=$?
UPID=""
[ "$rc" = 0 ] || fail "drifted subscriber exited $rc: $(cat driftsub.txt)"
grep -q '^bcast new-period period=20 ' driftsub.txt \
  || fail "drifted subscriber missed the live frame: $(cat driftsub.txt)"
"$CLI" client "$DSOCK" shutdown >/dev/null || fail "drift shutdown failed"
rc=0; wait "$DPID" || rc=$?
DPID=""
[ "$rc" = 0 ] || fail "drift daemon shutdown exited $rc"

# ========================== replicated deployments =============================
# A primary/follower pair over WAL shipping (DESIGN.md Sect. 12): the
# follower serves reads and rejects writes; an ack from the primary means
# the record is durable on the follower too, so SIGKILLing the primary and
# promoting the follower loses nothing. Clients connect through a socket
# symlink; repointing it plus the default connect retry masks the gap.
PSOCK_REAL="$WORK/repl_primary.sock"
FSOCK="$WORK/repl_follower.sock"
CSOCK="$WORK/cluster.sock"

"$CLI" init repl_primary.d --v 4 --group test128 --shards 2 >/dev/null
# A replica bootstraps from a byte-for-byte backup of the primary (shares
# the WAL HMAC keys, so shipped frames chain-verify).
cp -r repl_primary.d repl_follower.d

: > follower.log
"$DFKYD" repl_follower.d --socket "$FSOCK" --follower >> follower.log 2>&1 &
FPID=$!
for _ in $(seq 1 200); do
  grep -q 'dfkyd: ready' follower.log 2>/dev/null && break
  kill -0 "$FPID" 2>/dev/null \
    || fail "follower died at startup: $(cat follower.log)"
  sleep 0.05
done
grep -q 'dfkyd: ready' follower.log || fail "follower never ready"

: > rprimary.log
"$DFKYD" repl_primary.d --socket "$PSOCK_REAL" --replicate-to "$FSOCK" \
  >> rprimary.log 2>&1 &
RPID=$!
for _ in $(seq 1 200); do
  grep -q 'dfkyd: ready' rprimary.log 2>/dev/null && break
  kill -0 "$RPID" 2>/dev/null \
    || fail "replicating primary died at startup: $(cat rprimary.log)"
  sleep 0.05
done
grep -q 'dfkyd: ready' rprimary.log || fail "replicating primary never ready"
ln -s "$PSOCK_REAL" "$CSOCK"

# ---- the follower is a read-only replica --------------------------------------
"$CLI" client "$FSOCK" status | grep -q 'role: follower' \
  || fail "follower does not report role follower"
if "$CLI" client "$FSOCK" add nope.key >/dev/null 2>&1; then
  fail "follower accepted a mutation"
fi

# ---- every primary ack is already applied on the follower ---------------------
for i in $(seq 1 6); do
  "$CLI" client "$CSOCK" add "r$i.key" >/dev/null || fail "replicated add failed"
done
# No polling: the primary's ack gates on the follower's ack, so the
# follower must show the full history the instant our add returns.
"$CLI" client "$FSOCK" status | grep -q 'active: 6' \
  || fail "follower missing acked users"
# ...and it serves encrypt: id 0 landed on shard 0, its key opens the
# follower's broadcast.
"$CLI" client "$FSOCK" encrypt payload.bin fb1.bin --shard 0 >/dev/null \
  || fail "follower refused encrypt"
[ "$("$CLI" decrypt r1.key fb1.bin)" = "the midnight broadcast" ] \
  || fail "follower-encrypted content does not open"
# The cross-shard barrier replicates too.
"$CLI" client "$CSOCK" new-period --reset-out rnp >/dev/null
"$CLI" client "$FSOCK" status | grep -q 'period: 1' \
  || fail "follower epoch lags an acked new-period"
# The replicating primary counts its follower live and fully caught up.
"$CLI" client "$CSOCK" health > rp_health.txt \
  || fail "replicating primary health non-ok: $(cat rp_health.txt)"
grep -q '^verdict: ok' rp_health.txt \
  || fail "replicating primary verdict: $(cat rp_health.txt)"
grep -q '^followers_live: 1/1' rp_health.txt \
  || fail "follower not counted live: $(cat rp_health.txt)"

# ---- SIGKILL the primary mid-load; fsck the pair at the quiet point -----------
: > racked.txt
pids=()
for i in $(seq 1 12); do
  ( "$CLI" client "$CSOCK" add "ra$i.key" >/dev/null 2>&1 \
      && echo "$i" >> racked.txt ) &
  pids+=($!)
done
sleep 0.2
kill -9 "$RPID"
RPID=""
for p in "${pids[@]}"; do wait "$p" || true; done
racked=$(wc -l < racked.txt)
if [ -n "$FSCK" ]; then
  # The dead primary may carry a durable-but-unacked tail; that is "agree,
  # one lags", never divergence.
  "$FSCK" --replica repl_primary.d repl_follower.d > fsck_replica.txt \
    || fail "fsck --replica flagged the pair: $(cat fsck_replica.txt)"
  grep -q 'replicas agree on every shard' fsck_replica.txt \
    || fail "fsck --replica output unclear: $(cat fsck_replica.txt)"
fi

# ---- the survivor self-reports degraded until it is promoted ------------------
# `client health` mirrors the verdict in its exit status, so a monitoring
# script can gate a promote decision on it without parsing anything.
rc=0; "$CLI" client "$FSOCK" health > surv_health.txt || rc=$?
[ "$rc" = 1 ] || fail "survivor health exited $rc (degraded must exit 1)"
grep -q '^verdict: degraded' surv_health.txt \
  || fail "survivor not degraded: $(cat surv_health.txt)"
grep -q 'follower-read-only' surv_health.txt \
  || fail "survivor missing the read-only reason: $(cat surv_health.txt)"

# ---- promote under a live retrying client -------------------------------------
# The client starts while nothing is listening; default retry (~15s budget)
# must carry it across promote + symlink swap.
( "$CLI" client "$CSOCK" add failover.key >/dev/null 2>&1 \
    && : > failover.ok ) &
FAILOVER_CLIENT=$!
"$CLI" client "$FSOCK" promote | grep -q 'promoted to primary' \
  || fail "promote did not report primary"
ln -sfn "$FSOCK" "$CSOCK"
wait "$FAILOVER_CLIENT" || fail "retrying client died during failover"
[ -f failover.ok ] || fail "failover client add never acked"
[ -s failover.key ] || fail "failover key file missing"

# ---- the promoted follower serves the full acked history ----------------------
"$CLI" client "$CSOCK" status | grep -q 'role: primary' \
  || fail "promoted follower still claims follower role"
"$CLI" client "$CSOCK" health > prom_health.txt \
  || fail "promoted survivor health non-ok: $(cat prom_health.txt)"
grep -q '^verdict: ok' prom_health.txt \
  || fail "promoted survivor verdict: $(cat prom_health.txt)"
active=$("$CLI" client "$CSOCK" status | sed -n 's/^active: //p')
[ "$active" -ge $((6 + racked + 1)) ] \
  || fail "promotion lost acked users: acked $((6 + racked + 1)), has $active"
# ...and issues working keys for new mutations.
PVICTIM=$("$CLI" client "$CSOCK" add promoted.key \
  | sed -n 's/^added user #\([0-9]*\).*/\1/p')
[ -n "$PVICTIM" ] || fail "promoted add did not report the user id"
"$CLI" client "$CSOCK" encrypt payload.bin pb1.bin --shard $((PVICTIM % 2)) \
  >/dev/null
[ "$("$CLI" decrypt promoted.key pb1.bin)" = "the midnight broadcast" ] \
  || fail "promoted follower issues dead keys"
"$CLI" client "$CSOCK" new-period --reset-out pnp >/dev/null \
  || fail "promoted follower cannot run the epoch barrier"

"$CLI" client "$FSOCK" shutdown >/dev/null || fail "promoted shutdown failed"
rc=0; wait "$FPID" || rc=$?
FPID=""
[ "$rc" = 0 ] || fail "promoted shutdown exited $rc"
if [ -n "$FSCK" ]; then
  # The promoted stream moved on; the dead primary either lags it (exit 0)
  # or forked on a durable-but-unshipped tail (exit 1 — the detection this
  # mode exists for). Only an unreadable store (exit 2) is a failure here.
  rc=0; "$FSCK" --replica repl_primary.d repl_follower.d > fsck_final.txt \
    || rc=$?
  [ "$rc" -le 1 ] \
    || fail "fsck --replica unreadable after failover: $(cat fsck_final.txt)"
fi

# ===================== self-healing cluster (--auto-failover) ==================
# Three symmetric nodes (DESIGN.md Sect. 14): every node lists every other
# as a --replicate-to peer and runs --auto-failover. The primary acks only
# under a majority-held lease; followers watchdog the primary's heartbeats
# and elect + promote the most-caught-up survivor entirely on their own.
ABSOCK="$WORK/fo_a.sock"
BBSOCK="$WORK/fo_b.sock"
CBSOCK="$WORK/fo_c.sock"
FOSOCK="$WORK/fo_cluster.sock"
# Generous wall-clock timings for a loaded CI box: 2s ack lease, 100ms
# heartbeats, 3s election timeout, 100-500ms election delay.
FT="2000,100,3000,100,500"

# lease > hb-timeout would let a partitioned primary keep acking after its
# successor is elected; the flag parser must refuse the combination.
if "$DFKYD" fo_a.d --socket "$ABSOCK" --replicate-to "$BBSOCK" \
    --auto-failover --failover-timings 4000,100,3000,100,500 2>ft_err.txt; then
  fail "dfkyd accepted a lease longer than the election timeout"
fi
grep -q 'must not exceed' ft_err.txt \
  || fail "lease/timeout validation error unclear: $(cat ft_err.txt)"
if "$DFKYD" fo_a.d --socket "$ABSOCK" --auto-failover 2>af_err.txt; then
  fail "dfkyd accepted --auto-failover without peers"
fi

"$CLI" init fo_a.d --v 4 --group test128 --shards 2 >/dev/null
cp -r fo_a.d fo_b.d
cp -r fo_a.d fo_c.d

# Starts one cluster node and leaves its pid in FO_PID (a command
# substitution would orphan the daemon into a subshell and break `wait`).
start_fo_node() {  # start_fo_node <name> <dir> <socket> <peer1> <peer2> [role]
  local log="$1.log" dir="$2" sock="$3" p1="$4" p2="$5" role="${6:-}"
  : > "$log"
  # shellcheck disable=SC2086
  "$DFKYD" "$dir" --socket "$sock" --replicate-to "$p1" --replicate-to "$p2" \
    --auto-failover --failover-timings "$FT" $role >> "$log" 2>&1 &
  FO_PID=$!
  for _ in $(seq 1 200); do
    grep -q 'dfkyd: ready' "$log" 2>/dev/null && return 0
    kill -0 "$FO_PID" 2>/dev/null || fail "$1 died at startup: $(cat "$log")"
    sleep 0.05
  done
  fail "$1 never printed 'dfkyd: ready'"
}

start_fo_node fo_a fo_a.d "$ABSOCK" "$BBSOCK" "$CBSOCK"; APID=$FO_PID
start_fo_node fo_b fo_b.d "$BBSOCK" "$ABSOCK" "$CBSOCK" --follower; BPID=$FO_PID
start_fo_node fo_c fo_c.d "$CBSOCK" "$ABSOCK" "$BBSOCK" --follower; CPID=$FO_PID
grep -q 'auto-failover watchdog armed' fo_b.log \
  || fail "fo_b watchdog not armed: $(cat fo_b.log)"
grep -q 'auto-failover watchdog armed' fo_c.log \
  || fail "fo_c watchdog not armed: $(cat fo_c.log)"
ln -sfn "$ABSOCK" "$FOSOCK"

# ---- term surfaces on every diagnostics channel -------------------------------
"$CLI" client "$ABSOCK" repl-status > fo_repl.txt \
  || fail "repl-status failed on the armed primary"
grep -q '^term: 0' fo_repl.txt || fail "repl-status missing term: $(cat fo_repl.txt)"
# The verdict may transiently be degraded while the freshly started senders
# connect (health exits 1 then, which pipefail would misread as "no term
# line"), so capture the report first and grep it separately.
rc=0; "$CLI" client "$ABSOCK" health > fo_health0.txt || rc=$?
[ "$rc" -le 1 ] || fail "health verb failed on the armed primary"
grep -q '^term: 0' fo_health0.txt || fail "health does not surface the term"

# ---- promote/demote are idempotent with a distinct exit ------------------------
rc=0; "$CLI" client "$ABSOCK" promote > promote_again.txt || rc=$?
[ "$rc" = 3 ] || fail "re-promoting the primary exited $rc (want 3)"
grep -q 'already primary' promote_again.txt \
  || fail "re-promote output unclear: $(cat promote_again.txt)"
rc=0; "$CLI" client "$CBSOCK" demote > demote_again.txt || rc=$?
[ "$rc" = 3 ] || fail "re-demoting a follower exited $rc (want 3)"
grep -q 'already a follower' demote_again.txt \
  || fail "re-demote output unclear: $(cat demote_again.txt)"

# ---- acked writes land on the majority before the ack -------------------------
for i in $(seq 1 5); do
  "$CLI" client "$FOSOCK" add "fo$i.key" >/dev/null \
    || fail "armed add $i failed"
done
"$CLI" client "$BBSOCK" status | grep -q 'active: 5' \
  || fail "fo_b missing acked users the instant the ack returned"
"$CLI" client "$CBSOCK" status | grep -q 'active: 5' \
  || fail "fo_c missing acked users the instant the ack returned"

# ---- SIGKILL the primary: the cluster heals itself ----------------------------
kill -9 "$APID"
# The healing client starts only once the killed pid is gone: its first
# connect then fails on the stale socket and its retries carry it to the
# winner. A request already in flight at the kill would die with its
# connection, since the client retries connects, not requests.
for _ in $(seq 1 100); do kill -0 "$APID" 2>/dev/null || break; sleep 0.05; done
APID=""
( "$CLI" client "$FOSOCK" add healed.key >/dev/null 2>&1 \
    && : > healed.ok ) &
HEAL_CLIENT=$!
WSOCK=""; WLOG=""; LSOCK=""
for _ in $(seq 1 400); do
  if grep -q 'auto-failover: promoted' fo_b.log 2>/dev/null; then
    WSOCK="$BBSOCK"; WLOG=fo_b.log; LSOCK="$CBSOCK"; break
  fi
  if grep -q 'auto-failover: promoted' fo_c.log 2>/dev/null; then
    WSOCK="$CBSOCK"; WLOG=fo_c.log; LSOCK="$BBSOCK"; break
  fi
  sleep 0.05
done
[ -n "$WSOCK" ] || fail "no follower auto-promoted after the SIGKILL"
ln -sfn "$WSOCK" "$FOSOCK"
wait "$HEAL_CLIENT" || fail "retrying client died across the auto-failover"
[ -f healed.ok ] || fail "client add never acked across the auto-failover"
"$CLI" client "$WSOCK" status | grep -q 'role: primary' \
  || fail "auto-promoted node does not serve as primary"
"$CLI" client "$WSOCK" repl-status | grep -Eq '^term: [1-9]' \
  || fail "auto-promoted node still on term 0"
"$CLI" client "$WSOCK" status | grep -q 'active: 6' \
  || fail "auto-promoted node lost acked users"
# The winner's health turns degraded once its sender gives up on the dead
# ex-primary's socket: the auto-heal is visible to monitoring, not silent.
for _ in $(seq 1 200); do
  rc=0; "$CLI" client "$WSOCK" health > fo_health.txt || rc=$?
  [ "$rc" = 1 ] && grep -q '^verdict: degraded' fo_health.txt && break
  sleep 0.05
done
grep -q '^verdict: degraded' fo_health.txt \
  || fail "winner never reported degraded with fo_a dead: $(cat fo_health.txt)"
grep -q 'follower-dead:' fo_health.txt \
  || fail "winner's degraded verdict lacks the follower-dead reason: $(cat fo_health.txt)"
# The surviving follower tails the new primary's stream.
for _ in $(seq 1 100); do
  "$CLI" client "$LSOCK" status | grep -q 'active: 6' && break
  sleep 0.05
done
"$CLI" client "$LSOCK" status | grep -q 'active: 6' \
  || fail "surviving follower never converged on the new primary"

# ---- a revived ex-primary is fenced at startup and re-seeds online ------------
# The supervisor restarts the crashed node with its ORIGINAL primary command
# line; the startup probe hears the successor's higher term and starts
# fenced as a follower instead of serving a single stale write.
start_fo_node fo_a fo_a.d "$ABSOCK" "$BBSOCK" "$CBSOCK"; APID=$FO_PID
grep -q 'starting fenced until re-seeded' fo_a.log \
  || fail "revived ex-primary did not fence at startup: $(cat fo_a.log)"
if "$CLI" client "$ABSOCK" add zombie.key >/dev/null 2>&1; then
  fail "a fenced ex-primary acked a write"
fi
for _ in $(seq 1 200); do
  "$CLI" client "$ABSOCK" status | grep -q 'active: 6' && break
  sleep 0.05
done
"$CLI" client "$ABSOCK" status | grep -q 'active: 6' \
  || fail "revived ex-primary never re-seeded from the successor"
"$CLI" client "$ABSOCK" status | grep -q 'role: follower' \
  || fail "revived ex-primary still claims the primary role"
# ...and with every follower re-seeded and live, the winner is ok again:
# degraded -> ok across the whole heal.
for _ in $(seq 1 200); do
  if "$CLI" client "$WSOCK" health > fo_health2.txt 2>&1; then break; fi
  sleep 0.05
done
grep -q '^verdict: ok' fo_health2.txt \
  || fail "winner never recovered to ok after the re-seed: $(cat fo_health2.txt)"

# ---- byte-level agreement on the quiesced cluster, then clean exits -----------
if [ -n "$FSCK" ]; then
  W_DIR=fo_b.d; [ "$WSOCK" = "$CBSOCK" ] && W_DIR=fo_c.d
  "$FSCK" --replica "$W_DIR" fo_a.d > fsck_fo.txt \
    || fail "fsck --replica: re-seeded ex-primary diverges: $(cat fsck_fo.txt)"
  grep -q 'replicas agree on every shard' fsck_fo.txt \
    || fail "fsck --replica output unclear: $(cat fsck_fo.txt)"
fi
"$CLI" client "$ABSOCK" shutdown >/dev/null || fail "fo_a shutdown failed"
rc=0; wait "$APID" || rc=$?; APID=""
[ "$rc" = 0 ] || fail "re-seeded fo_a shutdown exited $rc"
for S in "$BBSOCK" "$CBSOCK"; do
  "$CLI" client "$S" shutdown >/dev/null 2>&1 || true
done
rc=0; wait "$BPID" || rc=$?; BPID=""
[ "$rc" = 0 ] || fail "fo_b shutdown exited $rc"
rc=0; wait "$CPID" || rc=$?; CPID=""
[ "$rc" = 0 ] || fail "fo_c shutdown exited $rc"

echo "daemon_e2e: ok (SIGKILL: $acked acked, $recovered recovered;" \
  "sharded ok; failover: $racked acked through the kill, $active recovered;" \
  "auto-failover: healed via ${WSOCK##*/})"
