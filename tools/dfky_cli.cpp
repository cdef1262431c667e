// dfky_cli — command-line management tool for the scalable trace-and-revoke
// system. A deployment lives in a directory, so it can be driven from a
// shell:
//
//   dfky_cli init sys --v 8 --group sec512
//   dfky_cli status sys
//   dfky_cli add sys alice.key
//   dfky_cli add sys bob.key
//   dfky_cli revoke sys 1 --reset-out reset
//   dfky_cli new-period sys --reset-out reset
//   dfky_cli encrypt sys payload.bin broadcast.bin
//   dfky_cli decrypt alice.key broadcast.bin
//   dfky_cli apply-reset alice.key reset.0.bin
//   dfky_cli pirate sys pirate.rep alice.key bob.key   (demo: forge a
//                                                       pirate decoder)
//   dfky_cli trace sys pirate.rep
//
// `<dir>` is a shard root (DESIGN.md Sect. 11): `init --shards N` (default
// 1) writes <dir>/shard.0 .. shard.N-1, each a crash-consistent store (WAL
// + checksummed snapshots, every mutation durable before the command
// acknowledges — see DESIGN.md Sect. 9 and dfky_fsck). User ids are global:
// user #g lives on shard g % N.
// status, add, revoke, new-period and encrypt are the daemon's verbs: the
// offline form opens `<dir>` and hands the request line to the same
// RequestHandler dfkyd serves, and `client <socket> <verb>` sends that
// line to a running dfkyd instead. Both forms build the request and print
// the response with the same code.
//
// Key files bundle the group description with the user key so the receiver
// side needs no other configuration.
//
// Observability: every subcommand accepts `--metrics-out <file>`, which
// appends this process's metrics snapshot (JSONL, dfky-metrics-v1) to the
// file on success. `dfky_cli stats <file>` merges the snapshots from a whole
// scripted session (counters sum, gauges last-write-wins, histogram buckets
// add) and prints a summary or Prometheus text; `--since <unix-ts>` keeps
// only the snapshots stamped at or after the given time.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "client/client.h"
#include "core/content.h"
#include "core/keyfile.h"
#include "core/manager.h"
#include "core/receiver.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rng/system_rng.h"
#include "serial/codec.h"
#include "store/store.h"
#include "tracing/nonblackbox.h"
#include "tracing/pirate.h"

using namespace dfky;

namespace {

void usage(std::FILE* to);

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "dfky_cli: " << msg << "\n";
  std::exit(1);
}

/// Malformed command line (as opposed to a failing operation): usage text
/// on stderr and exit code 2, so scripts can tell the two apart.
[[noreturn]] void die_usage(const std::string& msg) {
  std::cerr << "dfky_cli: " << msg << "\n";
  usage(stderr);
  std::exit(2);
}

/// Strict numeric argv parsing — std::stoul would accept "-5" (wrapping),
/// " 8" and "8junk", and throws on overflow; parse_u64 rejects them all.
std::uint64_t parse_count(const std::string& cmd, const std::string& what,
                          const std::string& s) {
  const std::optional<std::uint64_t> v = daemon::parse_u64(s);
  if (!v) {
    die_usage(cmd + ": " + what + " expects an unsigned integer, got '" + s +
              "'");
  }
  return *v;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open " + path);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) die("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// ---- key files (format shared with dfkyd — see core/keyfile.h) ---------------

using KeyFile = KeyFileData;

KeyFile read_key_file(const std::string& path) {
  return decode_key_file(read_file(path));
}

RealFileIo& real_io() {
  static RealFileIo io;
  return io;
}

/// Opens the shard root at `path` through the opener dfkyd uses, taking
/// every LOCK, and turns the failures an operator can act on into one-line
/// errors.
std::vector<StateStore> open_stores(const std::string& path) {
  if (!real_io().is_dir(path)) {
    die("'" + path + "' is not a store directory (`dfky_cli init " + path +
        "` creates one)");
  }
  ShardSetReport rep;
  std::vector<StateStore> stores;
  try {
    stores = open_shard_set(real_io(), path, {}, &rep);
  } catch (const StoreLockedError& e) {
    die(std::string(e.what()) +
        " — use `dfky_cli client` to talk to the daemon that holds it");
  } catch (const ContractError& e) {
    die(e.what());  // not a shard root
  } catch (const Error& e) {
    die("state store '" + path + "' is corrupt or unreadable: " + e.what() +
        " — run `dfky_fsck " + path + "` for a diagnosis");
  }
  for (const RecoveryReport& r : rep.recoveries) {
    if (r.truncated_records > 0 || r.skipped_snapshots > 0) {
      std::fprintf(stderr,
                   "dfky_cli: recovered %s: dropped %zu torn record(s) "
                   "(%zu byte(s)), skipped %zu bad snapshot(s)\n",
                   path.c_str(), r.truncated_records, r.truncated_bytes,
                   r.skipped_snapshots);
    }
  }
  return stores;
}

std::optional<std::string> flag_value(std::vector<std::string>& args,
                                      const std::string& name) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

/// Called after a command has consumed all the flags it knows; anything
/// left that looks like a flag is a usage error (exit 1, message on
/// stderr) rather than a silently ignored positional.
void reject_unknown_flags(const std::vector<std::string>& args,
                          const std::string& cmd) {
  for (const std::string& a : args) {
    if (a.size() >= 2 && a[0] == '-' && a[1] == '-') {
      die(cmd + ": unknown flag '" + a + "'");
    }
  }
}

Group group_by_name(const std::string& name) {
  if (name == "test128") return Group(GroupParams::named(ParamId::kTest128));
  if (name == "sec256") return Group(GroupParams::named(ParamId::kSec256));
  if (name == "sec512") return Group(GroupParams::named(ParamId::kSec512));
  if (name == "sec1024") return Group(GroupParams::named(ParamId::kSec1024));
  if (name == "sec2048") return Group(GroupParams::named(ParamId::kSec2048));
  if (name == "secp256k1") return Group(CurveSpec::secp256k1());
  if (name == "p256") return Group(CurveSpec::p256());
  die("unknown group '" + name +
      "' (test128|sec256|sec512|sec1024|sec2048|secp256k1|p256)");
}

// ---- commands -----------------------------------------------------------------

/// Most shards `init` writes: dfkyd runs one committer thread per shard.
constexpr std::size_t kMaxShards = 64;

int cmd_init(std::vector<std::string> args) {
  if (args.empty()) die("init: missing store directory");
  const std::string dir = args[0];
  args.erase(args.begin());
  const std::size_t v = static_cast<std::size_t>(
      parse_count("init", "--v", flag_value(args, "--v").value_or("8")));
  const std::string group_name =
      flag_value(args, "--group").value_or("sec512");
  const std::uint64_t shards = parse_count(
      "init", "--shards", flag_value(args, "--shards").value_or("1"));
  reject_unknown_flags(args, "init");
  if (shards == 0 || shards > kMaxShards) {
    die_usage("init: --shards must be in 1.." + std::to_string(kMaxShards) +
              ", got " + std::to_string(shards));
  }
  SystemRng rng;
  const SystemParams sp =
      SystemParams::create(group_by_name(group_name), v, rng);
  // shard.<k> subdirectories, one independent manager (and LOCK, WAL,
  // snapshot chain) per shard.
  std::vector<SecurityManager> managers;
  for (std::size_t i = 0; i < shards; ++i) managers.emplace_back(sp, rng);
  create_shard_set(real_io(), dir, std::move(managers), rng);
  std::printf("initialized: group=%s v=%zu m=%zu store=%s/ (%llu shard%s)\n",
              group_name.c_str(), v, sp.max_collusion(), dir.c_str(),
              static_cast<unsigned long long>(shards), shards == 1 ? "" : "s");
  return 0;
}

int cmd_decrypt(std::vector<std::string> args) {
  reject_unknown_flags(args, "decrypt");
  if (args.size() < 2) die("decrypt: usage: decrypt <key-file> <broadcast>");
  const KeyFile kf = read_key_file(args[0]);
  const Bytes raw = read_file(args[1]);
  Reader r(raw);
  const ContentMessage msg = ContentMessage::deserialize(r, kf.sp.group);
  r.expect_end();
  const Bytes payload = open_content(kf.sp, kf.key, msg);
  std::fwrite(payload.data(), 1, payload.size(), stdout);
  return 0;
}

int cmd_apply_reset(std::vector<std::string> args) {
  reject_unknown_flags(args, "apply-reset");
  if (args.size() < 2) {
    die("apply-reset: usage: apply-reset <key-file> <reset-file>");
  }
  KeyFile kf = read_key_file(args[0]);
  const Bytes raw = read_file(args[1]);
  Reader r(raw);
  const SignedResetBundle bundle =
      SignedResetBundle::deserialize(r, kf.sp.group);
  r.expect_end();
  Receiver receiver(kf.sp, kf.key, kf.manager_vk);
  switch (receiver.apply_reset(bundle)) {
    case ResetOutcome::kApplied:
      break;
    case ResetOutcome::kStaleIgnored:
      std::printf("key already at period %llu; stale reset ignored\n",
                  static_cast<unsigned long long>(receiver.period()));
      return 0;
    case ResetOutcome::kGapDetected:
      die("apply-reset: reset is for period " +
          std::to_string(bundle.reset.new_period) + " but key is at period " +
          std::to_string(receiver.period()) +
          "; apply the missing resets first");
    case ResetOutcome::kCannotFollow:
      die("apply-reset: this key cannot open the reset message (revoked "
          "before period " +
          std::to_string(bundle.reset.new_period) + ")");
  }
  // Rewrite the key file with the updated key.
  write_file(args[0], encode_key_file(kf.sp, kf.manager_vk, receiver.key()));
  std::printf("key updated to period %llu\n",
              static_cast<unsigned long long>(receiver.period()));
  return 0;
}

// pirate and trace read the shard root offline. A pirate decoder is built
// from keys of one shard (each shard is its own scheme instance), so both
// verbs work on that shard and name users by global id: local * N + shard.

int cmd_pirate(std::vector<std::string> args) {
  reject_unknown_flags(args, "pirate");
  if (args.size() < 3) {
    die("pirate: usage: pirate <dir> <rep-out> <key-file...>");
  }
  const std::vector<StateStore> stores = open_stores(args[0]);
  // A key file names its issuing shard by that manager's verification key.
  std::optional<std::size_t> shard;
  std::vector<UserKey> keys;
  for (std::size_t i = 2; i < args.size(); ++i) {
    KeyFile kf = read_key_file(args[i]);
    const auto it = std::find_if(
        stores.begin(), stores.end(), [&kf](const StateStore& s) {
          return s.manager().verification_key() == kf.manager_vk;
        });
    if (it == stores.end()) {
      die("pirate: " + args[i] + " was not issued by " + args[0]);
    }
    const std::size_t k = static_cast<std::size_t>(it - stores.begin());
    if (shard && *shard != k) {
      die("pirate: the keys come from shards " + std::to_string(*shard) +
          " and " + std::to_string(k) +
          "; a pirate decoder combines keys of one shard");
    }
    shard = k;
    keys.push_back(std::move(kf.key));
  }
  const SecurityManager& mgr = stores[*shard].manager();
  SystemRng rng;
  const Representation rep = build_pirate_representation(
      mgr.params(), mgr.public_key(), keys, rng);
  Writer w;
  put_bigint(w, rep.gamma_a);
  put_bigint(w, rep.gamma_b);
  put_bigint_vec(w, rep.tail);
  write_file(args[1], w.bytes());
  std::printf("pirate representation (%zu colluders) -> %s\n", keys.size(),
              args[1].c_str());
  return 0;
}

int cmd_trace(std::vector<std::string> args) {
  reject_unknown_flags(args, "trace");
  if (args.size() < 2) die("trace: usage: trace <dir> <rep-file>");
  const std::vector<StateStore> stores = open_stores(args[0]);
  const Bytes raw = read_file(args[1]);
  Reader r(raw);
  Representation rep;
  rep.gamma_a = get_bigint(r);
  rep.gamma_b = get_bigint(r);
  rep.tail = get_bigint_vec(r);
  r.expect_end();
  // The representation satisfies the public key of the shard whose keys
  // built it; the shards' keys are independent, so no other.
  const auto it = std::find_if(
      stores.begin(), stores.end(), [&rep](const StateStore& s) {
        return rep.valid_for(s.manager().params(), s.manager().public_key());
      });
  if (it == stores.end()) {
    die("trace: " + args[1] + " is not a representation of any shard's " +
        "public key in " + args[0]);
  }
  const std::uint64_t shard = static_cast<std::uint64_t>(it - stores.begin());
  const SecurityManager& mgr = it->manager();
  const TraceResult result = trace_nonblackbox(
      mgr.params(), mgr.public_key(), rep, mgr.users());
  std::printf("traced %zu traitor(s):", result.traitors.size());
  for (const auto& t : result.traitors) {
    std::printf(" #%llu",
                static_cast<unsigned long long>(t.id * stores.size() + shard));
  }
  std::printf("\n");
  return 0;
}

// ---- talking to a live dfkyd --------------------------------------------------

/// Connect retry policy of every client verb (--retry-ms / --retry-max,
/// global flags): 40 attempts from 25 ms, about 15 s of failover headroom.
client::RetryPolicy g_retry{.base_ms = 25, .max_attempts = 40};

/// One request/response round over a fresh connection to dfkyd.
std::string daemon_request(const std::string& socket_path,
                           const std::string& line) {
  return client::Conn(socket_path, g_retry).request(line);
}

/// The parsed response; dies naming `who` on an `err` answer.
daemon::Response expect_ok(const std::string& raw,
                           const std::string& who = "client: daemon error") {
  const std::optional<daemon::Response> r = daemon::parse_response(raw);
  if (!r) die("client: malformed daemon response: " + raw);
  if (!r->ok) die(who + ": " + r->error);
  return *r;
}

const std::string& response_field(const daemon::Response& r,
                                  const std::string& key) {
  const auto it = r.fields.find(key);
  if (it == r.fields.end()) {
    die("client: daemon response is missing field '" + key + "'");
  }
  return it->second;
}

Bytes decode_blob_field(const daemon::Response& r, const std::string& key) {
  const std::optional<Bytes> b = daemon::hex_decode(response_field(r, key));
  if (!b) die("client: daemon field '" + key + "' is not hex");
  return *b;
}

/// Writes the hex bundles of a `revoke`/`new-period` response as
/// `<prefix>.<i>.bin`, the files `apply-reset` reads.
std::size_t write_bundles_csv(const std::string& csv,
                              const std::string& prefix) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::optional<Bytes> bundle =
        daemon::hex_decode(std::string_view(csv).substr(start, comma - start));
    if (!bundle) die("client: daemon bundle is not hex");
    const std::string path = prefix + "." + std::to_string(count) + ".bin";
    write_file(path, *bundle);
    std::printf("period change -> %s (%zu bytes)\n", path.c_str(),
                bundle->size());
    ++count;
    start = comma + 1;
  }
  return count;
}

// ---- the served verbs, offline or over a socket -------------------------------

/// Serves one request line in process: opens the deployment at `dir`,
/// hands the line to the RequestHandler dfkyd serves, over a ShardRouter
/// on the opened stores, and closes the deployment again. A mutation is
/// durable before this returns, as dfkyd acks it.
std::string local_request(const std::string& dir, const std::string& line) {
  daemon::ShardRouter router(open_stores(dir), [](std::size_t) {
    return std::make_unique<SystemRng>();
  });
  if (router.rolled_at_open() > 0) {
    std::fprintf(stderr,
                 "dfky_cli: shard set %s recovered to epoch %llu "
                 "(%zu roll-forward(s))\n",
                 dir.c_str(),
                 static_cast<unsigned long long>(router.status().period),
                 router.rolled_at_open());
  }
  return daemon::RequestHandler(router).handle(line).response;
}

/// Where a served verb's request line goes: in process to a deployment
/// directory (`<verb> <dir> ...`) or to a running dfkyd's socket
/// (`client <socket> <verb> ...`). Nothing else differs between the forms.
struct Target {
  std::string path;
  bool local = false;

  /// The command as typed, for messages.
  std::string cmd(const std::string& verb) const {
    return local ? verb : "client " + verb;
  }
  [[noreturn]] void usage(const std::string& verb,
                          const std::string& rest) const {
    die_usage(cmd(verb) + ": usage: " +
              (local ? verb + " <dir>" : "client <socket> " + verb) + rest);
  }
  daemon::Response request(const std::string& verb,
                           const std::string& line) const {
    return local ? expect_ok(local_request(path, line), verb)
                 : expect_ok(daemon_request(path, line));
  }
};

void print_fields(const daemon::Response& r) {
  for (const auto& [k, v] : r.fields) {
    std::printf("%s: %s\n", k.c_str(), v.c_str());
  }
}

/// status, add, revoke, new-period and encrypt: each builds its request
/// line and prints its response here, for both forms. -1 for any other
/// verb.
int run_served(const Target& t, const std::string& verb,
               std::vector<std::string> args) {
  if (verb == "status") {
    reject_unknown_flags(args, t.cmd(verb));
    if (!args.empty()) t.usage(verb, "");
    print_fields(t.request(verb, "status"));
    return 0;
  }
  if (verb == "add") {
    reject_unknown_flags(args, t.cmd(verb));
    if (args.size() != 1) t.usage(verb, " <key-out>");
    const daemon::Response r = t.request(verb, "add-user");
    write_file(args[0], decode_blob_field(r, "key"));
    std::printf("added user #%s -> %s\n", response_field(r, "id").c_str(),
                args[0].c_str());
    return 0;
  }
  if (verb == "revoke") {
    const std::string reset_prefix =
        flag_value(args, "--reset-out").value_or("reset");
    reject_unknown_flags(args, t.cmd(verb));
    if (args.empty()) t.usage(verb, " <id...> [--reset-out P]");
    std::string req = "revoke";
    for (const std::string& a : args) {
      req += " " + std::to_string(parse_count(t.cmd(verb), "user id", a));
    }
    const daemon::Response r = t.request(verb, req);
    std::printf("revoked %zu user(s); saturation %s, period %s\n", args.size(),
                response_field(r, "saturation").c_str(),
                response_field(r, "period").c_str());
    write_bundles_csv(response_field(r, "bundles"), reset_prefix);
    return 0;
  }
  if (verb == "new-period") {
    const std::string reset_prefix =
        flag_value(args, "--reset-out").value_or("reset");
    reject_unknown_flags(args, t.cmd(verb));
    if (!args.empty()) t.usage(verb, " [--reset-out P]");
    const daemon::Response r = t.request(verb, "new-period");
    std::printf("advanced to period %s; saturation %s\n",
                response_field(r, "period").c_str(),
                response_field(r, "saturation").c_str());
    write_bundles_csv(response_field(r, "bundles"), reset_prefix);
    return 0;
  }
  if (verb == "encrypt") {
    const std::optional<std::string> shard = flag_value(args, "--shard");
    reject_unknown_flags(args, t.cmd(verb));
    if (args.size() != 2) t.usage(verb, " <payload> <out> [--shard K]");
    const Bytes payload = read_file(args[0]);
    std::string req = "encrypt " + daemon::hex_encode(payload);
    if (shard) {
      req += " " + std::to_string(parse_count(t.cmd(verb), "--shard", *shard));
    }
    const daemon::Response r = t.request(verb, req);
    const Bytes ct = decode_blob_field(r, "ct");
    write_file(args[1], ct);
    std::printf("encrypted %zu bytes -> %s (%zu bytes on the wire)\n",
                payload.size(), args[1].c_str(), ct.size());
    return 0;
  }
  return -1;
}

/// The offline form of a served verb: `<verb> <dir> ...`.
int cmd_served(const std::string& verb, std::vector<std::string> args) {
  if (args.empty()) die_usage(verb + ": missing store directory");
  const Target t{.path = args[0], .local = true};
  args.erase(args.begin());
  return run_served(t, verb, std::move(args));
}

/// `client <socket> pipeline [--window W]` — the pipelined client mode
/// (DESIGN.md Sect. 11). Reads protocol request lines from stdin, tags
/// request i with `@<i>`, and keeps up to W requests in flight over ONE
/// connection before reading replies. A sharded daemon completes tagged
/// requests out of order; the echoed tags let this client print every
/// response in input order regardless. Strict accounting: a missing,
/// duplicated, or unknown response id is fatal. Exit 0 when every request
/// was answered `ok`, 1 when any was answered `err`.
int cmd_client_pipeline(const std::string& sock,
                        std::vector<std::string> args) {
  const std::size_t window = static_cast<std::size_t>(
      parse_count("client pipeline", "--window",
                  flag_value(args, "--window").value_or("32")));
  reject_unknown_flags(args, "client pipeline");
  if (!args.empty()) {
    die_usage("client: usage: client <socket> pipeline [--window W] < requests");
  }
  if (window == 0) die("client pipeline: --window must be positive");

  std::vector<std::string> reqs;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '@') {
      die("client pipeline: requests must not carry @tags "
          "(they are assigned automatically)");
    }
    reqs.push_back(line);
  }
  if (reqs.empty()) {
    std::printf("pipelined 0 request(s)\n");
    return 0;
  }

  client::Conn conn(sock, g_retry);
  const std::vector<std::string> answers = client::pipeline(conn, reqs, window);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].starts_with("err ")) ++errors;
    std::printf("[%zu] %s\n", i, answers[i].c_str());
  }
  std::printf("pipelined %zu request(s), window %zu, %zu error(s)\n",
              reqs.size(), window, errors);
  return errors == 0 ? 0 : 1;
}

/// `client <socket> soak [--idle N] [--active M] [--per K] [--hold-ms T]`
/// — connection-scale load harness for the reactor front end (DESIGN.md
/// Sect. 15). Opens N idle connections and HOLDS them (pipeline can't:
/// it reads stdin to EOF before connecting), then runs M concurrent
/// workers that each pipeline K tagged pings over their own connection.
/// With --hold-ms the idle herd stays connected that long after the
/// active phase — the e2e suite uses a pure-idle soak as the
/// fd-exhaustion holder. Exits 0 when every active request was answered
/// `ok`. Connects are tried once and their failures are data points, not
/// fatal: a daemon at its fd limit is expected to shed the idle herd.
int cmd_client_soak(const std::string& sock, std::vector<std::string> args) {
  const auto idle = static_cast<std::size_t>(parse_count(
      "client soak", "--idle", flag_value(args, "--idle").value_or("0")));
  const auto active = static_cast<std::size_t>(parse_count(
      "client soak", "--active", flag_value(args, "--active").value_or("0")));
  const auto per = static_cast<std::size_t>(parse_count(
      "client soak", "--per", flag_value(args, "--per").value_or("100")));
  const auto hold_ms = parse_count(
      "client soak", "--hold-ms", flag_value(args, "--hold-ms").value_or("0"));
  reject_unknown_flags(args, "client soak");
  if (!args.empty()) {
    die_usage(
        "client: usage: client <socket> soak [--idle N] [--active M] "
        "[--per K] [--hold-ms T]");
  }

  // The soak's own fd budget has to cover the herd.
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }

  std::vector<client::Conn> held;
  held.reserve(idle);
  std::size_t idle_failed = 0;
  for (std::size_t i = 0; i < idle; ++i) {
    try {
      held.emplace_back(sock);
    } catch (const client::ConnError&) {
      ++idle_failed;
    }
  }

  const std::vector<std::string> pings(per, "ping");
  std::atomic<std::size_t> errors{0};
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> workers;
  workers.reserve(active);
  for (std::size_t w = 0; w < active; ++w) {
    workers.emplace_back([&] {
      try {
        client::Conn c(sock);
        for (const std::string& a : client::pipeline(c, pings, per)) {
          answered.fetch_add(1);
          if (!a.starts_with("ok")) errors.fetch_add(1);
        }
      } catch (const client::ConnError&) {
        errors.fetch_add(per);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  if (hold_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  }
  const std::size_t held_count = held.size();
  held.clear();

  std::printf(
      "soak: %zu idle conn(s) held (%zu refused), %zu worker(s) x %zu "
      "request(s), %zu answered, %zu error(s)\n",
      held_count, idle_failed, active, per, answered.load(), errors.load());
  return errors.load() == 0 ? 0 : 1;
}

/// `client <socket> subscribe [--from-period P] [--count N]` — upgrades
/// the connection to a push stream (DESIGN.md Sect. 16) and prints every
/// broadcast frame as it lands. With --from-period the daemon replays the
/// missed epochs out of its reset archives first, and prints `evicted=`
/// with the hex verdict of each shard whose archive no longer holds them;
/// with --count the client exits 0 after N frames (0: stream until the
/// daemon goes away).
int cmd_client_subscribe(const std::string& sock,
                         std::vector<std::string> args) {
  const std::optional<std::string> from = flag_value(args, "--from-period");
  const auto count = parse_count("client subscribe", "--count",
                                 flag_value(args, "--count").value_or("0"));
  reject_unknown_flags(args, "client subscribe");
  if (!args.empty()) {
    die_usage(
        "client: usage: client <socket> subscribe [--from-period P] "
        "[--count N]");
  }
  std::optional<std::uint64_t> from_period;
  if (from) {
    from_period = parse_count("client subscribe", "--from-period", *from);
  }
  client::Conn conn(sock, g_retry);
  const daemon::Response r = client::subscribe(conn, from_period);
  if (!r.ok) die("client: daemon error: " + r.error);
  const auto evicted = r.fields.find("evicted");
  std::printf("subscribed period=%s replayed=%s%s%s\n",
              response_field(r, "period").c_str(),
              response_field(r, "replayed").c_str(),
              evicted == r.fields.end() ? "" : " evicted=",
              evicted == r.fields.end() ? "" : evicted->second.c_str());
  std::fflush(stdout);
  for (std::uint64_t frames = 0; count == 0 || frames < count; ++frames) {
    std::string line;
    try {
      line = *conn.recv();
    } catch (const client::ConnError&) {
      // A finite subscription cut short is a failure; an open-ended one
      // ends whenever the daemon does.
      if (count != 0) die("client: stream ended before --count frames");
      return 0;
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// `client <socket> storm [--receivers N] [--periods G] [--workers W]` —
/// the catch-up-storm load driver (DESIGN.md Sect. 16). Adds one user and
/// gives each of N receivers a copy of its key, parks N connections,
/// advances the epoch G times behind their backs, then has every
/// connection catch its receiver up at once (client::catch_up): the daemon
/// must bridge each one over the missed epochs, or answer with the
/// shard's signed eviction verdict when its archive no longer holds them.
/// Exits 0 only when every receiver ended current at the new period or
/// terminal on a verified verdict.
int cmd_client_storm(const std::string& sock, std::vector<std::string> args) {
  const auto receivers = static_cast<std::size_t>(
      parse_count("client storm", "--receivers",
                  flag_value(args, "--receivers").value_or("1000")));
  const auto periods = parse_count(
      "client storm", "--periods", flag_value(args, "--periods").value_or("1"));
  const auto workers = static_cast<std::size_t>(parse_count(
      "client storm", "--workers", flag_value(args, "--workers").value_or("8")));
  reject_unknown_flags(args, "client storm");
  if (!args.empty() || receivers == 0 || periods == 0 || workers == 0) {
    die_usage(
        "client: usage: client <socket> storm [--receivers N] [--periods G] "
        "[--workers W]");
  }

  // The herd's fd budget.
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }

  const KeyFile kf = decode_key_file(decode_blob_field(
      expect_ok(daemon_request(sock, "add-user")), "key"));
  const std::uint64_t before = kf.key.period;

  // Park the herd first: these connections exist while the epochs roll,
  // exactly like receivers that were offline for the broadcasts.
  std::vector<client::Conn> herd;
  herd.reserve(receivers);
  std::size_t refused = 0;
  for (std::size_t i = 0; i < receivers; ++i) {
    try {
      herd.emplace_back(sock);
    } catch (const client::ConnError&) {
      ++refused;
    }
  }

  // The missed epochs, committed behind the parked herd's back.
  for (std::uint64_t g = 0; g < periods; ++g) {
    expect_ok(daemon_request(sock, "new-period"));
  }
  const std::uint64_t after =
      parse_count("client storm", "status period",
                  response_field(expect_ok(daemon_request(sock, "status")),
                                 "period"));

  // Release the herd: every connection catches its receiver up from the
  // pre-gap period at once.
  constexpr int kTimeoutMs = 30000;
  std::atomic<std::size_t> recovered{0};
  std::atomic<std::size_t> verdicts{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::uint64_t> frames_replayed{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < herd.size(); i += workers) {
        Receiver rx(kf.sp, kf.key, kf.manager_vk);
        try {
          frames_replayed.fetch_add(
              client::catch_up(herd[i], rx, kTimeoutMs).replayed);
        } catch (const Error&) {
        }
        if (rx.state() == ReceiverState::kUnrecoverable) {
          verdicts.fetch_add(1);
        } else if (rx.state() == ReceiverState::kCurrent &&
                   rx.period() == after) {
          recovered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  herd.clear();

  std::printf(
      "storm: receivers=%zu (%zu refused) periods=%llu->%llu recovered=%zu "
      "verdicts=%zu failed=%zu frames_replayed=%llu\n",
      receivers, refused, static_cast<unsigned long long>(before),
      static_cast<unsigned long long>(after), recovered.load(),
      verdicts.load(), failed.load(),
      static_cast<unsigned long long>(frames_replayed.load()));
  return (failed.load() == 0 && refused == 0) ? 0 : 1;
}

int cmd_client(std::vector<std::string> args) {
  if (args.size() < 2) {
    die_usage(
        "client: usage: client <socket> "
        "(ping|status|add|revoke|new-period|encrypt|pipeline|soak"
        "|subscribe|storm|repl-status|health|trace|promote|demote|shutdown) "
        "...");
  }
  const std::string sock = args[0];
  const std::string sub = args[1];
  args.erase(args.begin(), args.begin() + 2);

  if (sub == "pipeline") {
    return cmd_client_pipeline(sock, std::move(args));
  }
  if (sub == "soak") {
    return cmd_client_soak(sock, std::move(args));
  }
  if (sub == "subscribe") {
    return cmd_client_subscribe(sock, std::move(args));
  }
  if (sub == "storm") {
    return cmd_client_storm(sock, std::move(args));
  }
  if (sub == "ping" || sub == "repl-status") {
    reject_unknown_flags(args, "client " + sub);
    print_fields(expect_ok(daemon_request(sock, sub)));
    return 0;
  }
  if (sub == "health") {
    reject_unknown_flags(args, "client health");
    const daemon::Response r = expect_ok(daemon_request(sock, "health"));
    const std::string& verdict = response_field(r, "verdict");
    std::printf("verdict: %s\n", verdict.c_str());
    for (const auto& [k, v] : r.fields) {
      if (k != "verdict") std::printf("%s: %s\n", k.c_str(), v.c_str());
    }
    // Health-check exit semantics: scripts can gate on the verdict without
    // parsing the output.
    return verdict == "ok" ? 0 : 1;
  }
  if (sub == "trace") {
    reject_unknown_flags(args, "client trace");
    if (args.size() > 1) {
      die_usage("client: usage: client <socket> trace [max]");
    }
    std::string req = "trace";
    if (args.size() == 1) {
      req += " " + std::to_string(parse_count("client trace", "max", args[0]));
    }
    const daemon::Response r = expect_ok(daemon_request(sock, req));
    const Bytes jsonl = decode_blob_field(r, "jsonl");
    std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
    return 0;
  }
  if (sub == "promote") {
    reject_unknown_flags(args, "client promote");
    const daemon::Response r = expect_ok(daemon_request(sock, "promote"));
    const auto already = r.fields.find("already");
    const auto term = r.fields.find("term");
    const std::string term_sfx =
        term != r.fields.end() ? " at term " + term->second : std::string();
    if (already != r.fields.end() && already->second == "1") {
      // Idempotent re-promote: report it distinctly (exit 3) so failover
      // scripts can tell "I won" from "someone beat me to it".
      std::printf("already primary%s (period %s)\n", term_sfx.c_str(),
                  response_field(r, "period").c_str());
      return 3;
    }
    std::printf("promoted to %s%s at period %s (%s WAL record(s))\n",
                response_field(r, "role").c_str(), term_sfx.c_str(),
                response_field(r, "period").c_str(),
                response_field(r, "wal_records").c_str());
    return 0;
  }
  if (sub == "demote") {
    reject_unknown_flags(args, "client demote");
    const daemon::Response r = expect_ok(daemon_request(sock, "demote"));
    const auto already = r.fields.find("already");
    const auto term = r.fields.find("term");
    const std::string term_sfx =
        term != r.fields.end() ? " at term " + term->second : std::string();
    if (already != r.fields.end() && already->second == "1") {
      std::printf("already a follower%s (period %s)\n", term_sfx.c_str(),
                  response_field(r, "period").c_str());
      return 3;
    }
    std::printf("demoted to %s%s at period %s\n",
                response_field(r, "role").c_str(), term_sfx.c_str(),
                response_field(r, "period").c_str());
    return 0;
  }
  if (sub == "shutdown") {
    reject_unknown_flags(args, "client shutdown");
    expect_ok(daemon_request(sock, "shutdown"));
    std::printf("daemon acknowledged shutdown\n");
    return 0;
  }
  if (const int rc = run_served(Target{.path = sock}, sub, std::move(args));
      rc >= 0) {
    return rc;
  }
  die_usage("client: unknown daemon command '" + sub + "'");
}

// ---- metrics snapshots and the stats subcommand -------------------------------

/// Appends this process's metrics snapshot to `path`. Each snapshot's meta
/// line is stamped with the wall-clock time so `stats --since` can window
/// a long-running session's file.
void append_metrics_snapshot(const std::string& path) {
  std::ofstream out(path, std::ios::app);
  if (!out) die("cannot write metrics file " + path);
  // The registry's meta line leads the snapshot; splice the timestamp into
  // it and pass the rest through untouched.
  std::string snap = obs::MetricsRegistry::instance().jsonl();
  const std::string marker = "\"kind\":\"meta\"";
  const std::size_t at = snap.find(marker);
  if (at != std::string::npos) {
    snap.insert(at + marker.size(),
                ",\"ts\":" + std::to_string(std::time(nullptr)));
  }
  out << snap;
}

/// Metrics merged across the snapshots of a scripted session. Keys are the
/// Prometheus-style `name{k="v",...}` rendering, so the maps sort exactly
/// like the exporters do.
struct MergedMetrics {
  struct Hist {
    std::vector<double> bounds;
    std::vector<double> cumulative;  // per bucket incl. +Inf, summed
    double count = 0;
    double sum = 0;
  };
  std::map<std::string, double> counters;    // summed
  std::map<std::string, double> gauges;      // last write wins
  std::map<std::string, Hist> histograms;    // buckets added elementwise
  std::map<std::string, std::size_t> event_counts;
  std::vector<json::Value> events;           // in file order
  std::size_t snapshots = 0;
};

std::string series_key(const json::Value& line) {
  std::string key = line.find("name")->as_string();
  const json::Value* labels = line.find("labels");
  if (labels && !labels->as_object().empty()) {
    key += "{";
    bool first = true;
    for (const auto& [k, v] : labels->as_object()) {
      if (!first) key += ",";
      first = false;
      key += k + "=\"" + json::escape(v.as_string()) + "\"";
    }
    key += "}";
  }
  return key;
}

std::vector<double> number_array(const json::Value& v) {
  std::vector<double> out;
  for (const json::Value& x : v.as_array()) out.push_back(x.as_number());
  return out;
}

/// Merges the snapshots in `path`. With `since` set, snapshots whose meta
/// line carries no timestamp or a timestamp before `since` are skipped
/// wholesale (every line up to the next meta line belongs to the snapshot
/// that opened it).
MergedMetrics read_metrics_file(const std::string& path,
                                std::optional<double> since = std::nullopt) {
  std::ifstream in(path);
  if (!in) die("cannot open metrics file " + path);
  MergedMetrics m;
  std::string line;
  std::size_t lineno = 0;
  bool in_window = !since.has_value();
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::Value::parse(line);
    } catch (const DecodeError& e) {
      die(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
    const json::Value* kind = v.find("kind");
    if (!kind) die(path + ":" + std::to_string(lineno) + ": missing \"kind\"");
    const std::string& k = kind->as_string();
    if (k == "meta") {
      if (since) {
        const json::Value* ts = v.find("ts");
        in_window = ts && ts->as_number() >= *since;
      }
      if (!in_window) continue;
      ++m.snapshots;
    } else if (!in_window) {
      continue;
    } else if (k == "counter") {
      m.counters[series_key(v)] += v.find("value")->as_number();
    } else if (k == "gauge") {
      m.gauges[series_key(v)] = v.find("value")->as_number();
    } else if (k == "histogram") {
      MergedMetrics::Hist& h = m.histograms[series_key(v)];
      const std::vector<double> bounds = number_array(*v.find("bounds"));
      const std::vector<double> cum =
          number_array(*v.find("cumulative_counts"));
      if (h.bounds.empty()) {
        h.bounds = bounds;
        h.cumulative.assign(cum.size(), 0.0);
      }
      if (bounds != h.bounds || cum.size() != h.cumulative.size()) {
        die(path + ":" + std::to_string(lineno) +
            ": histogram bounds changed between snapshots");
      }
      for (std::size_t i = 0; i < cum.size(); ++i) h.cumulative[i] += cum[i];
      h.count += v.find("count")->as_number();
      h.sum += v.find("sum")->as_number();
    } else if (k == "event") {
      m.event_counts[v.find("name")->as_string()] += 1;
      m.events.push_back(std::move(v));
    } else {
      die(path + ":" + std::to_string(lineno) + ": unknown kind \"" + k +
          "\"");
    }
  }
  return m;
}

/// Same rank-interpolation rule as Histogram::Snapshot::quantile, applied
/// to the merged buckets.
double merged_quantile(const MergedMetrics::Hist& h, double q) {
  if (h.count <= 0) return 0.0;
  const double rank = q * h.count;
  double prev_cum = 0, prev_bound = 0;
  for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
    const double cum = h.cumulative[i];
    if (rank <= cum || i + 1 == h.cumulative.size()) {
      if (i >= h.bounds.size()) {
        // +Inf bucket: no upper bound to interpolate against.
        return h.bounds.empty() ? h.sum / h.count : h.bounds.back();
      }
      const double in_bucket = cum - prev_cum;
      if (in_bucket <= 0) return h.bounds[i];
      const double frac = (rank - prev_cum) / in_bucket;
      return prev_bound + frac * (h.bounds[i] - prev_bound);
    }
    prev_cum = cum;
    if (i < h.bounds.size()) prev_bound = h.bounds[i];
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

std::string fmt_ns(double ns) {
  char buf[64];
  if (ns >= 1e9) std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  else if (ns >= 1e6) std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  else if (ns >= 1e3) std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  else std::snprintf(buf, sizeof buf, "%.0fns", ns);
  return buf;
}

void print_summary(const MergedMetrics& m) {
  std::printf("snapshots: %zu\n", m.snapshots);
  if (!m.counters.empty()) {
    std::printf("\n# counters\n");
    for (const auto& [k, v] : m.counters) {
      std::printf("  %-56s %s\n", k.c_str(), json::format_number(v).c_str());
    }
  }
  if (!m.gauges.empty()) {
    std::printf("\n# gauges\n");
    for (const auto& [k, v] : m.gauges) {
      std::printf("  %-56s %s\n", k.c_str(), json::format_number(v).c_str());
    }
  }
  if (!m.histograms.empty()) {
    std::printf("\n# timings\n");
    for (const auto& [k, h] : m.histograms) {
      std::printf("  %-44s count=%-6s p50=%-10s p95=%s\n", k.c_str(),
                  json::format_number(h.count).c_str(),
                  fmt_ns(merged_quantile(h, 0.5)).c_str(),
                  fmt_ns(merged_quantile(h, 0.95)).c_str());
    }
  }
  if (!m.event_counts.empty()) {
    std::printf("\n# events\n");
    for (const auto& [k, n] : m.event_counts) {
      std::printf("  %-56s %zu\n", k.c_str(), n);
    }
  }
}

void print_prometheus(const MergedMetrics& m) {
  for (const auto& [k, v] : m.counters) {
    std::printf("%s %s\n", k.c_str(), json::format_number(v).c_str());
  }
  for (const auto& [k, v] : m.gauges) {
    std::printf("%s %s\n", k.c_str(), json::format_number(v).c_str());
  }
  for (const auto& [k, h] : m.histograms) {
    // Splice `le` into an existing label set: name{a="b"} -> name_bucket{a="b",le="..."}.
    const std::size_t brace = k.find('{');
    const std::string name = k.substr(0, brace == std::string::npos ? k.size() : brace);
    const std::string inner =
        brace == std::string::npos ? "" : k.substr(brace + 1, k.size() - brace - 2);
    for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
      const std::string le = i < h.bounds.size()
                                 ? json::format_number(h.bounds[i])
                                 : std::string("+Inf");
      std::printf("%s_bucket{%s%sle=\"%s\"} %s\n", name.c_str(), inner.c_str(),
                  inner.empty() ? "" : ",", le.c_str(),
                  json::format_number(h.cumulative[i]).c_str());
    }
    std::printf("%s_sum%s %s\n", name.c_str(),
                brace == std::string::npos ? "" : k.substr(brace).c_str(),
                json::format_number(h.sum).c_str());
    std::printf("%s_count%s %s\n", name.c_str(),
                brace == std::string::npos ? "" : k.substr(brace).c_str(),
                json::format_number(h.count).c_str());
  }
}

/// Drops events (and their counts) that miss the `--name`/`--user` filters.
/// Counters/gauges/histograms are left alone — the filters select from the
/// longitudinal event log, not the aggregates.
void filter_events(MergedMetrics& m, const std::optional<std::string>& name,
                   std::optional<std::int64_t> user) {
  if (!name && !user) return;
  std::vector<json::Value> kept;
  m.event_counts.clear();
  for (json::Value& ev : m.events) {
    if (name && ev.find("name")->as_string() != *name) continue;
    if (user) {
      const json::Value* u = ev.find("user");
      if (!u || static_cast<std::int64_t>(u->as_number()) != *user) continue;
    }
    m.event_counts[ev.find("name")->as_string()] += 1;
    kept.push_back(std::move(ev));
  }
  m.events = std::move(kept);
}

/// One line per surviving event, in file order — the per-user / per-name
/// timeline view the summary's aggregate counts can't give.
void print_events(const MergedMetrics& m) {
  for (const json::Value& ev : m.events) {
    std::printf("event %s", ev.find("name")->as_string().c_str());
    for (const char* k : {"period", "user", "value"}) {
      if (const json::Value* v = ev.find(k)) {
        std::printf(" %s=%s", k, json::format_number(v->as_number()).c_str());
      }
    }
    if (const json::Value* d = ev.find("detail")) {
      std::printf(" detail=%s", d->as_string().c_str());
    }
    std::printf("\n");
  }
}

int cmd_stats(std::vector<std::string> args) {
  const std::string format = flag_value(args, "--format").value_or("summary");
  std::optional<double> since;
  if (const auto s = flag_value(args, "--since")) {
    since = static_cast<double>(
        parse_count("stats", "--since (a unix timestamp)", *s));
  }
  const std::optional<std::string> name_filter = flag_value(args, "--name");
  if (name_filter && name_filter->empty()) {
    die_usage("stats: --name expects a non-empty event name");
  }
  std::optional<std::int64_t> user_filter;
  if (const auto u = flag_value(args, "--user")) {
    user_filter = static_cast<std::int64_t>(
        parse_count("stats", "--user (a user id)", *u));
  }
  reject_unknown_flags(args, "stats");
  if (args.empty()) {
    die_usage(
        "stats: usage: stats <metrics-file> [--format summary|prom] "
        "[--since TS] [--name EVENT] [--user ID]");
  }
  MergedMetrics m = read_metrics_file(args[0], since);
  filter_events(m, name_filter, user_filter);
  if (format == "summary") {
    print_summary(m);
    if (name_filter || user_filter) print_events(m);
  } else if (format == "prom") {
    print_prometheus(m);
  } else {
    die("stats: unknown format '" + format + "' (summary|prom)");
  }
  return 0;
}

void usage(std::FILE* to) {
  std::fputs(
      "usage: dfky_cli <command> ... [--metrics-out FILE]\n"
      "  init <dir> [--v N] [--group NAME] [--shards N]\n"
      "                                        create a deployment\n"
      "  status <dir>                          show system state\n"
      "  add <dir> <key-out>                   subscribe a user\n"
      "  revoke <dir> <id...> [--reset-out P]  revoke users\n"
      "  new-period <dir> [--reset-out P]      proactive period change\n"
      "  encrypt <dir> <payload> <out> [--shard K]  broadcast content\n"
      "  decrypt <key-file> <broadcast>        receive content\n"
      "  apply-reset <key-file> <reset-file>   follow a period change\n"
      "  pirate <dir> <rep-out> <key...>       (demo) forge a pirate key\n"
      "                                        from keys of one shard\n"
      "  trace <dir> <rep-file>                trace a pirate key\n"
      "  stats <metrics-file> [--format summary|prom] [--since TS]\n"
      "        [--name EVENT] [--user ID]   filter the event log by event\n"
      "        name / user id (matching events are listed one per line)\n"
      "  client <socket> <cmd> ...             talk to a running dfkyd\n"
      "      ping | status | add <key-out> | revoke <id...> [--reset-out P]\n"
      "      | new-period [--reset-out P] | encrypt <payload> <out> [--shard K]\n"
      "      | pipeline [--window W]  (requests on stdin, tagged @<n>,\n"
      "        up to W in flight on one connection; replies printed in\n"
      "        input order) | repl-status | health  (cluster verdict\n"
      "        ok/degraded/fail; exit 1 unless ok) | trace [max]  (recent +\n"
      "        slow request traces as JSONL) | promote | demote  (role\n"
      "        flips; re-promote/re-demote exits 3 \"already\") | shutdown\n"
      "      | subscribe [--from-period P] [--count N]  (upgrade to a push\n"
      "        stream: missed epochs replayed, then live broadcast frames\n"
      "        printed as they land; exit after N frames)\n"
      "      | storm [--receivers N] [--periods G] [--workers W]  (catch-up\n"
      "        storm driver: add one user, park N connections whose\n"
      "        receivers hold its key, roll G epochs, catch them all up at\n"
      "        once; exit 0 only when every one ended current or on its\n"
      "        shard's signed eviction verdict)\n"
      "      connects retry transient failures with capped exponential\n"
      "      backoff: --retry-ms B (initial delay, default 25, doubling to\n"
      "      500ms) --retry-max N (attempts, default 40; 0 or 1 disables)\n"
      "  help                                  this text\n"
      "\n"
      "<dir> is a shard root: init --shards N (default 1) writes\n"
      "shard.0 .. shard.N-1, one store per shard (WAL + snapshots and a\n"
      "LOCK; every mutation durable before the command returns; see\n"
      "dfky_fsck). User #g lives on shard g % N.\n"
      "status, add, revoke, new-period and encrypt run the same request\n"
      "through the same handler either way: offline on <dir>, which must\n"
      "not be held by a dfkyd, or as `client <socket> <verb>` against the\n"
      "dfkyd serving it. pirate and trace read <dir> offline and print\n"
      "global ids.\n"
      "--metrics-out FILE appends this invocation's metrics snapshot\n"
      "(JSONL) to FILE; `stats` merges the snapshots of a whole session,\n"
      "`--since TS` windows them by the timestamp stamped on each snapshot.\n",
      to);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 1;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return 0;
  }
  // Global flags, valid on every subcommand.
  const std::optional<std::string> metrics_out =
      flag_value(args, "--metrics-out");
  if (const auto v = flag_value(args, "--retry-ms")) {
    g_retry.base_ms = parse_count(cmd, "--retry-ms", *v);
    if (g_retry.base_ms == 0) die("--retry-ms must be positive");
  }
  if (const auto v = flag_value(args, "--retry-max")) {
    g_retry.max_attempts = parse_count(cmd, "--retry-max", *v);
  }
  int rc = -1;
  try {
    if (cmd == "init") rc = cmd_init(std::move(args));
    else if (cmd == "status" || cmd == "add" || cmd == "revoke" ||
             cmd == "new-period" || cmd == "encrypt") {
      rc = cmd_served(cmd, std::move(args));
    }
    else if (cmd == "decrypt") rc = cmd_decrypt(std::move(args));
    else if (cmd == "apply-reset") rc = cmd_apply_reset(std::move(args));
    else if (cmd == "pirate") rc = cmd_pirate(std::move(args));
    else if (cmd == "trace") rc = cmd_trace(std::move(args));
    else if (cmd == "stats") rc = cmd_stats(std::move(args));
    else if (cmd == "client") rc = cmd_client(std::move(args));
  } catch (const Error& e) {
    die(e.what());
  } catch (const std::exception& e) {
    die(std::string("unexpected error: ") + e.what());
  }
  if (rc < 0) {
    std::cerr << "dfky_cli: unknown command '" << cmd << "'\n";
    usage(stderr);
    return 1;
  }
  if (metrics_out) append_metrics_snapshot(*metrics_out);
  return rc;
}
