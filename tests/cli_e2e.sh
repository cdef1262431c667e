#!/usr/bin/env bash
# End-to-end exercise of tools/dfky_cli: init -> subscribe -> broadcast ->
# revoke -> period change -> key update -> pirate -> trace on a one-shard
# root, the same offline verbs (pirate -> trace among them) on a two-shard
# root, the refusal of a directory that is not a shard root, and dfky_fsck
# when its binary is passed as $2. The offline verbs run through the daemon's
# request handler in process, so the metrics check below also proves
# they took that path.
set -euo pipefail

CLI="$1"
FSCK="${2:-}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "cli_e2e: $1" >&2; exit 1; }

"$CLI" init sys.d --v 4 --group test128 >/dev/null
[ -f sys.d/shard.0/store.key ] || fail "init did not create shard.0"
[ ! -e sys.d/store.key ] || fail "init wrote a store at the root's top level"
"$CLI" add sys.d alice.key >/dev/null
"$CLI" add sys.d bob.key >/dev/null
"$CLI" add sys.d carol.key >/dev/null

printf 'the midnight broadcast' > payload.bin
"$CLI" encrypt sys.d payload.bin b1.bin >/dev/null
[ "$("$CLI" decrypt alice.key b1.bin)" = "the midnight broadcast" ] \
  || fail "alice cannot decrypt"

# Revoke carol (id 2): she must be barred, alice unaffected.
"$CLI" revoke sys.d 2 >/dev/null
"$CLI" encrypt sys.d payload.bin b2.bin >/dev/null
[ "$("$CLI" decrypt alice.key b2.bin)" = "the midnight broadcast" ] \
  || fail "alice broken after revocation"
if "$CLI" decrypt carol.key b2.bin >/dev/null 2>&1; then
  fail "revoked carol still decrypts"
fi

# Trace an alice+bob pirate key.
"$CLI" pirate sys.d pirate.rep alice.key bob.key >/dev/null
"$CLI" trace sys.d pirate.rep | grep -q '#0' || fail "trace missed alice"
"$CLI" trace sys.d pirate.rep | grep -q '#1' || fail "trace missed bob"

# Force a period change (4 more revocations with v = 4), apply the reset.
for i in 1 2 3 4; do "$CLI" add sys.d "u$i.key" >/dev/null; done
"$CLI" revoke sys.d 3 4 5 6 --reset-out reset >/dev/null
[ -f reset.0.bin ] || fail "no reset bundle emitted"
"$CLI" apply-reset alice.key reset.0.bin >/dev/null
"$CLI" encrypt sys.d payload.bin b3.bin >/dev/null
[ "$("$CLI" decrypt alice.key b3.bin)" = "the midnight broadcast" ] \
  || fail "alice cannot decrypt after period change"

# Stale bob (reset never applied) must fail in the new period.
if "$CLI" decrypt bob.key b3.bin >/dev/null 2>&1; then
  fail "stale bob still decrypts"
fi

"$CLI" status sys.d | grep -q 'period: *1' || fail "period not advanced"

# ---- exit codes and usage routing --------------------------------------------
if "$CLI" frobnicate >/dev/null 2>err.txt; then
  fail "unknown command exited 0"
fi
grep -q '^usage:' err.txt || fail "unknown command: no usage on stderr"
if "$CLI" status sys.d --frob 2>/dev/null; then
  fail "unknown flag exited 0"
fi
if "$CLI" >/dev/null 2>err.txt; then
  fail "bare invocation exited 0"
fi
"$CLI" help > help.txt || fail "help exited nonzero"
grep -q '^usage:' help.txt || fail "help: no usage on stdout"

# ---- malformed numeric argv: exit 2 + usage, never an uncaught throw ---------
# (std::stoul/stoull used to throw std::invalid_argument here, or silently
# wrap "-5" to 2^64-5 and revoke the wrong user.)
check_usage_error() {
  set +e
  "$CLI" "$@" >/dev/null 2>err.txt
  rc=$?
  set -e
  [ "$rc" = 2 ] || fail "'$*' exited $rc, want 2: $(cat err.txt)"
  grep -q '^usage:' err.txt || fail "'$*': no usage on stderr"
  if grep -Eq 'terminate|std::|abort' err.txt; then
    fail "'$*' died by uncaught exception: $(cat err.txt)"
  fi
}
check_usage_error revoke sys.d banana
check_usage_error revoke sys.d -5
check_usage_error revoke sys.d 18446744073709551616
check_usage_error revoke sys.d 99999999999999999999999999
check_usage_error init never.d --v banana
check_usage_error init never.d --v -1
check_usage_error init never.d --v 18446744073709551616
[ ! -e never.d ] || fail "malformed --v still created the store"
# dfkyd runs one committer thread per shard, so the count is bounded; the
# refusal comes before any manager is made.
check_usage_error init never.d --shards 65
check_usage_error init never.d --shards 0
[ ! -e never.d ] || fail "an out-of-range --shards still created the store"
check_usage_error stats nothing.jsonl --since banana
# client-mode ids go through the same parser.
check_usage_error client nowhere.sock revoke banana

# A daemon client with no daemon: clean nonzero failure, not a hang/crash.
if "$CLI" client /nonexistent/dfkyd.sock status >/dev/null 2>err.txt; then
  fail "client against a missing socket exited 0"
fi
grep -q 'cannot connect' err.txt || fail "client: unclear connect error"

# ---- metrics: --metrics-out snapshots merged by `stats` ----------------------
M="metrics.jsonl"
"$CLI" init sys2.d --v 2 --group test128 --metrics-out "$M" >/dev/null
"$CLI" add sys2.d dora.key --metrics-out "$M" >/dev/null
for i in 1 2 3; do "$CLI" add sys2.d "w$i.key" --metrics-out "$M" >/dev/null; done
"$CLI" revoke sys2.d 1 2 3 --reset-out r2 --metrics-out "$M" >/dev/null
[ -f r2.0.bin ] || fail "no reset bundle from sys2 revocations"
"$CLI" apply-reset dora.key r2.0.bin --metrics-out "$M" >/dev/null
"$CLI" encrypt sys2.d payload.bin b4.bin --metrics-out "$M" >/dev/null
[ "$("$CLI" decrypt dora.key b4.bin --metrics-out "$M")" = "the midnight broadcast" ] \
  || fail "dora cannot decrypt after period change"

head -n 1 "$M" | grep -q '"kind":"meta"' || fail "metrics file: no meta line"
"$CLI" stats "$M" > stats.txt || fail "stats exited nonzero"
grep -q '"obs":"on"' "$M" || fail "metrics file: meta line does not say obs on"
# The scripted session must have left real numbers.
grep -Eq 'dfky_resets_generated_total\{mode="[a-z]+"\} +[1-9]' stats.txt \
  || fail "stats: no reset generated for the period change"
# The offline revoke went through the daemon's request handler.
grep -Eq 'dfkyd_requests_total\{outcome="ok",verb="revoke"\} +[1-9]' stats.txt \
  || fail "stats: offline revoke did not run through the request handler"
grep -Eq 'dfky_reset_apply_total\{outcome="applied"\} +[1-9]' stats.txt \
  || fail "stats: reset apply not counted"
grep -Eq 'dfky_decrypt_ns\{path="user"\} +count=[1-9]' stats.txt \
  || fail "stats: no decrypt timings"
# No grep -q on a long output: it exits at the first match and SIGPIPEs
# the writer, which pipefail turns into a failure.
"$CLI" stats "$M" --format prom | grep 'dfky_users_added_total' >/dev/null \
  || fail "stats --format prom missing counters"
if "$CLI" stats "$M" --format yaml >/dev/null 2>&1; then
  fail "stats accepted an unknown format"
fi

# ---- stats --since windows snapshots by their meta timestamp -----------------
grep -q '"ts":' "$M" || fail "metrics meta lines carry no timestamp"
"$CLI" stats "$M" --since 0 | grep 'snapshots: [1-9]' >/dev/null \
  || fail "stats --since 0 dropped everything"
"$CLI" stats "$M" --since 99999999999 | grep 'snapshots: 0' >/dev/null \
  || fail "stats --since far-future kept snapshots"
if "$CLI" stats "$M" --since yesterday >/dev/null 2>&1; then
  fail "stats --since accepted a non-numeric timestamp"
fi

# ---- stats --name/--user narrow the event log ---------------------------------
# The scripted session above revoked users 1,2,3, so the revoke events
# carry known user ids; filters print the matching event lines verbatim.
"$CLI" stats "$M" --name revoke > ev.txt || fail "stats --name exited nonzero"
grep -c '^event revoke ' ev.txt | grep -qx 3 \
  || fail "stats --name revoke: want 3 event lines: $(grep -c '^event ' ev.txt)"
if grep '^event ' ev.txt | grep -v '^event revoke ' > /dev/null; then
  fail "stats --name leaked foreign events"
fi
"$CLI" stats "$M" --name revoke --user 2 > ev2.txt \
  || fail "stats --user exited nonzero"
grep -q '^event revoke .*user=2' ev2.txt \
  || fail "stats --user 2 missed the matching revoke"
grep -c '^event ' ev2.txt | grep -qx 1 \
  || fail "stats --user 2 kept non-matching events"
if "$CLI" stats "$M" --name no_such_event | grep '^event ' > /dev/null; then
  fail "stats --name with an unknown event still printed events"
fi
check_usage_error stats "$M" --user banana
check_usage_error stats "$M" --name ''

# ---- unreadable stores die with a clear message ------------------------------
printf 'not a dfky store' > bogus.state
if "$CLI" status bogus.state >/dev/null 2>err.txt; then
  fail "a plain file opened as a store"
fi
grep -q "is not a store directory" err.txt \
  || fail "plain file: unclear message: $(cat err.txt)"
"$CLI" init trunc.d --v 2 --group test128 >/dev/null
snapfile=(trunc.d/shard.0/snap.*)
head -c 100 "${snapfile[0]}" > snap.part && mv snap.part "${snapfile[0]}"
if "$CLI" add trunc.d never.key >/dev/null 2>err.txt; then
  fail "a store with a truncated snapshot exited 0"
fi
grep -q "corrupt" err.txt || fail "truncated snapshot: unclear message: $(cat err.txt)"
[ ! -e never.key ] || fail "a corrupt store still issued a key"

# ---- new-period, status and fsck on a store directory ------------------------
"$CLI" init store.sys --v 4 --group test128 >/dev/null
[ -d store.sys ] || fail "init did not create a directory"
[ -f store.sys/shard.0/store.key ] || fail "store missing shard.0/store.key"
"$CLI" add store.sys s_alice.key >/dev/null
"$CLI" add store.sys s_bob.key >/dev/null
"$CLI" encrypt store.sys payload.bin sb1.bin >/dev/null
[ "$("$CLI" decrypt s_alice.key sb1.bin)" = "the midnight broadcast" ] \
  || fail "store: alice cannot decrypt"
"$CLI" revoke store.sys 1 >/dev/null
"$CLI" encrypt store.sys payload.bin sb2.bin >/dev/null
if "$CLI" decrypt s_bob.key sb2.bin >/dev/null 2>&1; then
  fail "store: revoked bob still decrypts"
fi
"$CLI" new-period store.sys --reset-out snp >/dev/null
[ -f snp.0.bin ] || fail "store: new-period emitted no bundle"
"$CLI" apply-reset s_alice.key snp.0.bin >/dev/null
"$CLI" encrypt store.sys payload.bin sb3.bin >/dev/null
[ "$("$CLI" decrypt s_alice.key sb3.bin)" = "the midnight broadcast" ] \
  || fail "store: alice cannot decrypt after new-period"
"$CLI" status store.sys | grep -q 'period: *1' || fail "store: period not advanced"
"$CLI" status store.sys | grep -q '^wal_records: *[1-9]' \
  || fail "store: status does not report the WAL"
if "$CLI" init store.sys --v 4 --group test128 >/dev/null 2>&1; then
  fail "init over an existing store exited 0"
fi
if "$CLI" init legacy.d --store >/dev/null 2>&1; then
  fail "init accepted the removed --store flag"
fi

if [ -n "$FSCK" ]; then
  # Clean store passes; a torn WAL tail is detected, repaired, then clean.
  "$FSCK" store.sys >/dev/null || fail "fsck: clean store flagged"
  printf 'TORN_TAIL_GARBAGE' >> store.sys/shard.0/wal.*
  if "$FSCK" store.sys >/dev/null; then
    fail "fsck: torn tail not detected"
  fi
  "$FSCK" store.sys --repair >/dev/null || fail "fsck --repair failed"
  "$FSCK" store.sys >/dev/null || fail "fsck: store dirty after repair"
  # The repaired store still serves its subscribers.
  "$CLI" encrypt store.sys payload.bin sb4.bin >/dev/null
  [ "$("$CLI" decrypt s_alice.key sb4.bin)" = "the midnight broadcast" ] \
    || fail "store: alice cannot decrypt after fsck repair"
  # An unrecoverable store exits 2.
  snapfile=(store.sys/shard.0/snap.*)
  printf 'XXXXXXXX' | dd of="${snapfile[0]}" bs=1 seek=16 conv=notrunc 2>/dev/null
  set +e
  "$FSCK" store.sys >/dev/null 2>&1
  rc=$?
  set -e
  [ "$rc" = 2 ] || fail "fsck: corrupt snapshot exit code $rc, want 2"
fi

# ---- the offline verbs on a shard root ----------------------------------------
"$CLI" init shards.d --v 4 --group test128 --shards 2 | grep -q '(2 shards)' \
  || fail "init --shards 2 did not report 2 shards"
# One process per add: placement still alternates, ids 0..3 -> shard id % 2.
for u in 0 1 2 3; do
  "$CLI" add shards.d "h$u.key" | grep -q "added user #$u " \
    || fail "shard root: add $u did not get id $u"
done
# Pirate -> trace on one shard: h1 and h3 are shard 1's local users 0
# and 1, and trace names them by their global ids.
"$CLI" pirate shards.d spirate.rep h1.key h3.key >/dev/null \
  || fail "shard root: pirate failed"
"$CLI" trace shards.d spirate.rep > strace.txt || fail "shard root: trace failed"
grep -qx 'traced 2 traitor(s): #1 #3' strace.txt \
  || fail "shard root: trace did not name exactly #1 #3: $(cat strace.txt)"
# A pirate decoder combines keys of one shard: keys of two are refused.
if "$CLI" pirate shards.d mixed.rep h0.key h1.key >/dev/null 2>err.txt; then
  fail "pirate accepted keys from two shards"
fi
grep -q 'come from shards 0 and 1' err.txt \
  || fail "pirate across shards: unclear message: $(cat err.txt)"
[ ! -e mixed.rep ] || fail "a refused pirate still wrote its representation"
"$CLI" revoke shards.d 3 | grep -q 'revoked 1 user' \
  || fail "shard root: revoke failed"
"$CLI" encrypt shards.d payload.bin hb1.bin --shard 1 >/dev/null
[ "$("$CLI" decrypt h1.key hb1.bin)" = "the midnight broadcast" ] \
  || fail "shard root: h1 cannot decrypt shard 1's broadcast"
if "$CLI" decrypt h3.key hb1.bin >/dev/null 2>&1; then
  fail "shard root: revoked h3 still decrypts"
fi
"$CLI" new-period shards.d --reset-out shp >/dev/null
[ -f shp.0.bin ] && [ -f shp.1.bin ] \
  || fail "shard root: new-period did not emit one bundle per shard"
"$CLI" apply-reset h0.key shp.0.bin >/dev/null
"$CLI" apply-reset h1.key shp.1.bin >/dev/null
for k in 0 1; do
  "$CLI" encrypt shards.d payload.bin "hb2.$k.bin" --shard "$k" >/dev/null
  [ "$("$CLI" decrypt "h$k.key" "hb2.$k.bin")" = "the midnight broadcast" ] \
    || fail "shard root: h$k cannot decrypt after new-period"
done
"$CLI" status shards.d > sstatus.txt
for want in 'shards: 2' 'period: 1' 'periods: 1,1' 'active: 3' 'revoked: 1'; do
  grep -qx "$want" sstatus.txt || fail "shard root status: no '$want': $(cat sstatus.txt)"
done
# sys.d's representation fits no public key of shards.d.
if "$CLI" trace shards.d pirate.rep >/dev/null 2>err.txt; then
  fail "trace accepted another deployment's representation"
fi
grep -q 'not a representation of any shard' err.txt \
  || fail "foreign representation: unclear message: $(cat err.txt)"

# ---- a store at a directory's top level is not a deployment ------------------
cp -r shards.d/shard.0 single.d
if "$CLI" status single.d >/dev/null 2>err.txt; then
  fail "status opened a top-level store"
fi
grep -q 'dfky_cli init' err.txt \
  || fail "status on a top-level store: message names no way out: $(cat err.txt)"
if "$CLI" trace single.d pirate.rep >/dev/null 2>err.txt; then
  fail "trace opened a top-level store"
fi
grep -q 'dfky_cli init' err.txt \
  || fail "trace on a top-level store: message names no way out: $(cat err.txt)"
if [ -n "$FSCK" ]; then
  set +e
  "$FSCK" single.d >/dev/null 2>err.txt
  rc=$?
  set -e
  [ "$rc" = 2 ] || fail "fsck on a top-level store exited $rc, want 2"
  grep -q 'dfky_cli init' err.txt \
    || fail "fsck on a top-level store: message names no way out: $(cat err.txt)"
fi
# The way out the message names: its files moved into shard.0/.
mkdir single.d/shard.0
find single.d -maxdepth 1 -type f -exec mv {} single.d/shard.0/ \;
"$CLI" status single.d | grep -qx 'active: 2' \
  || fail "a top-level store moved into shard.0 does not open"

# ---- dfky_fsck --replica on a WAL header that does not match the snapshot ----
# The plain check says "needs repair" (exit 1) and open() starts an empty
# log; --replica reports it the same way and compares that empty log.
if [ -n "$FSCK" ]; then
  cp -r shards.d replica.d
  wal="$(ls replica.d/shard.1/wal.* | head -n 1)"
  printf '\377' | dd of="$wal" bs=1 seek=0 count=1 conv=notrunc 2>/dev/null
  set +e
  "$FSCK" replica.d > plain.txt 2>&1
  rc_plain=$?
  "$FSCK" --replica shards.d replica.d > replica.txt 2>&1
  rc_replica=$?
  set -e
  [ "$rc_plain" = 1 ] || fail "fsck: bad WAL header exited $rc_plain, want 1"
  grep -q '^replica.d/shard.1: needs repair' plain.txt \
    || fail "fsck: bad WAL header not 'needs repair': $(cat plain.txt)"
  [ "$rc_replica" = 1 ] \
    || fail "fsck --replica: bad WAL header exited $rc_replica, want 1: $(cat replica.txt)"
  grep -q '^replica.d/shard.1: needs repair' replica.txt \
    || fail "fsck --replica: bad WAL header not 'needs repair': $(cat replica.txt)"
  grep -q 'the next open starts an empty log' replica.txt \
    || fail "fsck --replica: no empty-log note: $(cat replica.txt)"
  grep -q 'replica.d/shard.1 lags by' replica.txt \
    || fail "fsck --replica: the empty log was not compared: $(cat replica.txt)"
  if grep -q UNRECOVERABLE replica.txt; then
    fail "fsck --replica: a valid snapshot reported UNRECOVERABLE"
  fi
fi

echo "cli_e2e: ok"
