#include "layers.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/content.h"
#include "core/manager.h"
#include "core/receiver.h"
#include "crypto/schnorr.h"
#include "crypto/stream_seal.h"
#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "daemon/shard.h"
#include "group/params.h"
#include "rng/chacha_rng.h"
#include "store/file_io.h"
#include "store/store.h"
#include "wire.h"

namespace perfbench {

namespace {

namespace dd = dfky::daemon;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median wall time of `reps` calls of `f`, in microseconds.
template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t a = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - a) / 1e3);
  }
  return median(std::move(t));
}

dfky::StoreOptions no_rotation() {
  dfky::StoreOptions opts;
  opts.snapshot_every = std::size_t{1} << 30;
  return opts;
}

}  // namespace

std::map<std::string, double> run_layers(const LayerSizes& sz,
                                         std::uint64_t seed,
                                         const std::string& dir) {
  std::map<std::string, double> m;
  dfky::ChaChaRng rng(seed ^ 0x6c61796572730000ULL);
  const dfky::Group group(dfky::GroupParams::named(dfky::ParamId::kSec512));
  const dfky::SystemParams sp = dfky::SystemParams::create(group, 16, rng);
  const dfky::Bytes payload = rng.bytes(sz.payload_bytes);

  // -- group -------------------------------------------------------------------
  {
    const dfky::Gelt base = group.random_element(rng);
    const dfky::Bigint e = group.random_exponent(rng);
    m["group.pow_us"] = median_us(32, [&] { (void)group.pow(base, e); });
    for (const std::size_t k : {std::size_t{2}, std::size_t{18}}) {
      std::vector<dfky::Gelt> bases;
      std::vector<dfky::Bigint> exps;
      for (std::size_t i = 0; i < k; ++i) {
        bases.push_back(group.random_element(rng));
        exps.push_back(group.random_exponent(rng));
      }
      m["group.multiexp_us.k" + std::to_string(k)] = median_us(
          k == 2 ? 32 : 8, [&] { (void)dfky::multiexp(group, bases, exps); });
    }
  }

  // -- core --------------------------------------------------------------------
  dfky::SecurityManager mgr(sp, rng);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(mgr.add_user(rng).id);
  const dfky::SecurityManager::AddedUser holder = mgr.add_user(rng);
  m["core.manager_add_user_us"] =
      median_us(32, [&] { ids.push_back(mgr.add_user(rng).id); });
  const dfky::ContentMessage msg =
      dfky::seal_content(sp, mgr.public_key(), payload, rng);
  m["core.seal_content_us"] = median_us(16, [&] {
    (void)dfky::seal_content(sp, mgr.public_key(), payload, rng);
  });
  m["core.open_content_us"] = median_us(16, [&] {
    if (dfky::open_content(sp, holder.key, msg) != payload) {
      throw std::runtime_error("layers: open_content returned a wrong payload");
    }
  });
  {
    // Each call gets a fresh receiver still at the bundle's previous period.
    const dfky::SignedResetBundle bundle = mgr.new_period(rng);
    std::vector<double> t;
    for (int i = 0; i < 16; ++i) {
      dfky::Receiver rx(sp, holder.key, mgr.verification_key());
      const std::uint64_t a = now_ns();
      const dfky::ResetOutcome out = rx.apply_reset(bundle);
      t.push_back(static_cast<double>(now_ns() - a) / 1e3);
      if (out != dfky::ResetOutcome::kApplied) {
        throw std::runtime_error("layers: apply_reset did not apply");
      }
    }
    m["core.apply_reset_us"] = median(std::move(t));
  }
  m["core.manager_new_period_us"] =
      median_us(8, [&] { (void)mgr.new_period(rng); });
  {
    // 12 single-id revocations stay under the saturation limit v = 16 of
    // the period the last new_period opened, so none of them rolls.
    std::size_t next = 0;
    m["core.manager_remove_users_us"] = median_us(12, [&] {
      const std::uint64_t id = ids[next++];
      (void)mgr.remove_users(std::span<const std::uint64_t>(&id, 1), rng);
    });
  }

  // -- crypto ------------------------------------------------------------------
  {
    const dfky::Bytes key32 = rng.bytes(dfky::kSealKeySize);
    m["crypto.stream_seal_us"] =
        median_us(16, [&] { (void)dfky::seal(key32, payload); });
    const dfky::SchnorrKeyPair kp = dfky::SchnorrKeyPair::generate(group, rng);
    const dfky::Bytes text = rng.bytes(64);
    const dfky::SchnorrSignature sig = kp.sign(group, text, rng);
    m["crypto.schnorr_verify_us"] = median_us(16, [&] {
      if (!dfky::schnorr_verify(group, kp.public_key(), text, sig)) {
        throw std::runtime_error("layers: schnorr_verify rejected");
      }
    });
  }

  // -- protocol: the ciphertext hex of a response, the payload of a request --
  {
    dfky::Writer w;
    msg.serialize(w, group);
    const dfky::Bytes ct = std::move(w).take();
    const std::string hex = dd::hex_encode(payload);
    m["protocol.hex_encode_us"] = median_us(32, [&] { (void)dd::hex_encode(ct); });
    m["protocol.hex_decode_us"] = median_us(32, [&] { (void)dd::hex_decode(hex); });
  }

  dfky::RealFileIo io;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // -- store: batched staging, then one append+fsync per batch ----------------
  {
    dfky::StateStore store = dfky::StateStore::create(
        io, dir + "/store", dfky::SecurityManager(sp, rng), rng, no_rotation());
    store.set_batching(true);
    m["store.stage_us"] = median_us(32, [&] { (void)store.add_user(rng); });
    store.sync();
    for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
      std::vector<double> t;
      for (int r = 0; r < 8; ++r) {
        for (std::size_t b = 0; b < batch; ++b) (void)store.add_user(rng);
        const std::uint64_t a = now_ns();
        store.sync();
        t.push_back(static_cast<double>(now_ns() - a) / 1e3);
      }
      m["store.sync_us.b" + std::to_string(batch)] = median(std::move(t));
    }
    store.set_batching(false);
  }

  // -- daemon/shard and the request handler -----------------------------------
  {
    std::vector<dfky::SecurityManager> managers;
    for (std::size_t s = 0; s < sz.shards; ++s) managers.emplace_back(sp, rng);
    dd::ShardRouter router(
        dfky::create_shard_set(io, dir + "/shards", std::move(managers), rng,
                               no_rotation()),
        [seed](std::size_t k) {
          return std::make_unique<dfky::ChaChaRng>(seed + 11 + k);
        });
    m["shard.encrypt_us"] =
        median_us(16, [&] { (void)router.encrypt(payload, 0); });
    // Aggregate encrypt rate of `threads` concurrent callers.
    const auto rate = [&](std::size_t threads) {
      constexpr int kPer = 12;
      std::atomic<bool> failed{false};
      const std::uint64_t a = now_ns();
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          try {
            for (int i = 0; i < kPer; ++i) (void)router.encrypt(payload, 0);
          } catch (...) {
            failed = true;
          }
        });
      }
      for (std::thread& t : pool) t.join();
      if (failed) throw std::runtime_error("layers: ShardRouter::encrypt threw");
      return static_cast<double>(threads * kPer) /
             (static_cast<double>(now_ns() - a) / 1e9);
    };
    const double one = rate(1);
    m["shard.encrypt_speedup_4t"] = rate(sz.threads) / one;
    m["shard.new_period_all_us"] =
        median_us(8, [&] { (void)router.new_period_all(); });

    dd::RequestHandler handler(router);
    const auto handle = [&](const std::string& line) {
      std::string r = handler.handle(line).response;
      if (!r.starts_with("ok")) {
        throw std::runtime_error("layers: handler: " + r.substr(0, 200));
      }
      return r;
    };
    const std::string enc = "encrypt " + dd::hex_encode(payload);
    m["handler.encrypt_us"] = median_us(16, [&] { handle(enc); });
    std::vector<std::uint64_t> added;
    m["handler.add_user_us"] = median_us(16, [&] {
      const auto r = dd::parse_response(handle("add-user"));
      added.push_back(*dd::parse_u64(r->fields.at("id")));
    });
    // The barrier above reset every shard's saturation level, so these 12
    // revocations stay within v and none rolls a period.
    std::size_t next = 0;
    m["handler.revoke_us"] = median_us(
        12, [&] { handle("revoke " + std::to_string(added[next++])); });
    m["handler.new_period_us"] = median_us(8, [&] { handle("new-period"); });
  }
  std::filesystem::remove_all(dir);
  return m;
}

}  // namespace perfbench
