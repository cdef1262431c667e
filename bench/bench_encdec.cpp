// E2: encryption/decryption cost.
// Paper claim (Sect. 4): Encrypt costs v+3 exponentiations, Decrypt v+2
// (plus O(v^2) scalar work for the Lagrange coefficients) — both independent
// of the number of users n and of the total number of past user operations.
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "core/scheme.h"
#include "rng/chacha_rng.h"

namespace {

using namespace dfky;

struct Fixture {
  SystemParams sp;
  SetupResult s;
  UserKey sk;
  Gelt m;
  Ciphertext ct;

  Fixture(ParamId id, std::size_t v) : sp(make(id, v)), s(make_setup(sp)) {
    ChaChaRng rng(99);
    sk = issue_user_key(sp, s.msk, Bigint(123456), 0);
    m = sp.group.random_element(rng);
    ct = encrypt(sp, s.pk, m, rng);
  }

  static SystemParams make(ParamId id, std::size_t v) {
    ChaChaRng rng(42);
    return SystemParams::create(Group(GroupParams::named(id)), v, rng);
  }
  static SetupResult make_setup(const SystemParams& params) {
    ChaChaRng rng(43);
    return setup(params, rng);
  }
};

void BM_Encrypt_VSweep(benchmark::State& state) {
  Fixture fx(ParamId::kTest128, static_cast<std::size_t>(state.range(0)));
  ChaChaRng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encrypt(fx.sp, fx.s.pk, fx.m, rng));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
  state.counters["exps"] = static_cast<double>(state.range(0) + 3);
}
BENCHMARK(BM_Encrypt_VSweep)->RangeMultiplier(2)->Range(4, 128)->Unit(benchmark::kMillisecond);

void BM_Decrypt_VSweep(benchmark::State& state) {
  Fixture fx(ParamId::kTest128, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decrypt(fx.sp, fx.sk, fx.ct));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
  state.counters["exps"] = static_cast<double>(state.range(0) + 2);
}
BENCHMARK(BM_Decrypt_VSweep)->RangeMultiplier(2)->Range(4, 128)->Unit(benchmark::kMillisecond);

void BM_Encrypt_512bitReference(benchmark::State& state) {
  Fixture fx(ParamId::kSec512, static_cast<std::size_t>(state.range(0)));
  ChaChaRng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encrypt(fx.sp, fx.s.pk, fx.m, rng));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Encrypt_512bitReference)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Decrypt_512bitReference(benchmark::State& state) {
  Fixture fx(ParamId::kSec512, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decrypt(fx.sp, fx.sk, fx.ct));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Decrypt_512bitReference)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// Independence from n: decryption after the registry has grown by `n` users
// (the work is identical — the counter documents the claim being tested).
void BM_Decrypt_PopulationIndependence(benchmark::State& state) {
  Fixture fx(ParamId::kTest128, 16);
  // Issue state.range(0) extra keys; decryption must not care.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<UserKey> others;
  for (std::size_t i = 0; i < n; ++i) {
    others.push_back(
        issue_user_key(fx.sp, fx.s.msk, Bigint((long)(100000 + i)), 0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(decrypt(fx.sp, fx.sk, fx.ct));
  }
  state.counters["n_users"] = static_cast<double>(n);
}
BENCHMARK(BM_Decrypt_PopulationIndependence)
    ->Arg(64)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// Ablation: an Encryptor with a fixed-base table on every base vs a
// table-less one — same algorithm and output, tables amortized across the
// broadcasts a provider sends under one public key.
void BM_Encrypt_TableLess(benchmark::State& state) {
  Fixture fx(ParamId::kSec512, static_cast<std::size_t>(state.range(0)));
  const Encryptor enc(fx.sp, fx.s.pk);
  ChaChaRng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encrypt(fx.m, rng));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Encrypt_TableLess)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Encrypt_FixedBase(benchmark::State& state) {
  Fixture fx(ParamId::kSec512, static_cast<std::size_t>(state.range(0)));
  const Encryptor enc = Encryptor(fx.sp, fx.s.pk).with_tables();
  ChaChaRng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encrypt(fx.m, rng));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Encrypt_FixedBase)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// Elliptic-curve backend reference point (secp256k1, ~128-bit security).
void BM_Encrypt_EcReference(benchmark::State& state) {
  ChaChaRng setup_rng(42);
  const SystemParams sp = SystemParams::create(
      Group(CurveSpec::secp256k1()), static_cast<std::size_t>(state.range(0)),
      setup_rng);
  ChaChaRng rng(18);
  const SetupResult s = setup(sp, rng);
  const Gelt m = sp.group.random_element(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encrypt(sp, s.pk, m, rng));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Encrypt_EcReference)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_Decrypt_EcReference(benchmark::State& state) {
  ChaChaRng setup_rng(42);
  const SystemParams sp = SystemParams::create(
      Group(CurveSpec::secp256k1()), static_cast<std::size_t>(state.range(0)),
      setup_rng);
  ChaChaRng rng(19);
  const SetupResult s = setup(sp, rng);
  const UserKey sk = issue_user_key(sp, s.msk, Bigint(123456), 0);
  const Gelt m = sp.group.random_element(rng);
  const Ciphertext ct = encrypt(sp, s.pk, m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decrypt(sp, sk, ct));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Decrypt_EcReference)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_RepresentationDecrypt(benchmark::State& state) {
  // Pirate-path decryption (used heavily by tracing experiments).
  Fixture fx(ParamId::kTest128, static_cast<std::size_t>(state.range(0)));
  const Representation rep = representation_of(fx.sp, fx.sk, fx.s.pk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decrypt_with_representation(fx.sp, rep, fx.ct));
  }
  state.counters["v"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RepresentationDecrypt)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

// Machine-readable records first (self-sampled; cheap sizes so the smoke
// profile stays fast), then the full google-benchmark suite unless smoking.
int main(int argc, char** argv) {
  using namespace dfky;
  benchjson::Report report("encdec");
  const std::size_t samples = benchjson::smoke() ? 3 : 15;
  for (const std::size_t v : {std::size_t{4}, std::size_t{16}}) {
    Fixture fx(ParamId::kTest128, v);
    ChaChaRng rng(7);
    const std::uint64_t bytes = fx.ct.wire_size(fx.sp.group);
    report.add_timed("encrypt", 0, v, bytes, samples, [&] {
      benchmark::DoNotOptimize(encrypt(fx.sp, fx.s.pk, fx.m, rng));
    });
    report.add_timed("decrypt", 0, v, bytes, samples, [&] {
      benchmark::DoNotOptimize(decrypt(fx.sp, fx.sk, fx.ct));
    });
    const Representation rep = representation_of(fx.sp, fx.sk, fx.s.pk);
    report.add_timed("decrypt_representation", 0, v, bytes, samples, [&] {
      benchmark::DoNotOptimize(decrypt_with_representation(fx.sp, rep, fx.ct));
    });
  }
  if (!report.write()) return 1;
  if (benchjson::smoke()) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
