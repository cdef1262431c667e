// E8: group-substrate anchor — modular exponentiation and multi-exponentiation
// cost per parameter set. Every other experiment's absolute numbers are
// multiples of these.
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "group/fixed_base.h"
#include "rng/chacha_rng.h"

namespace {

using namespace dfky;

const GroupParams& params_for(int idx) {
  static const std::array<GroupParams, 5> kAll = {
      GroupParams::named(ParamId::kTest128), GroupParams::named(ParamId::kSec256),
      GroupParams::named(ParamId::kSec512), GroupParams::named(ParamId::kSec1024),
      GroupParams::named(ParamId::kSec2048)};
  return kAll.at(static_cast<std::size_t>(idx));
}

void BM_ModExp(benchmark::State& state) {
  const Group g(params_for(static_cast<int>(state.range(0))));
  ChaChaRng rng(1);
  const Gelt base = g.random_element(rng);
  const Bigint e = g.random_exponent(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.pow(base, e));
  }
  state.SetLabel(std::to_string(g.p().bit_length()) + "-bit p");
}
BENCHMARK(BM_ModExp)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_MultiExp(benchmark::State& state) {
  const Group g(GroupParams::named(ParamId::kSec512));
  ChaChaRng rng(2);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Gelt> bases;
  std::vector<Bigint> exps;
  for (std::size_t i = 0; i < k; ++i) {
    bases.push_back(g.random_element(rng));
    exps.push_back(g.random_exponent(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiexp(g, bases, exps));
  }
  state.counters["terms"] = static_cast<double>(k);
}
BENCHMARK(BM_MultiExp)->RangeMultiplier(2)->Range(2, 64)->Unit(benchmark::kMicrosecond);

void BM_NaiveProductOfPows(benchmark::State& state) {
  // The baseline multiexp replaces: k independent pow + mul.
  const Group g(GroupParams::named(ParamId::kSec512));
  ChaChaRng rng(3);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Gelt> bases;
  std::vector<Bigint> exps;
  for (std::size_t i = 0; i < k; ++i) {
    bases.push_back(g.random_element(rng));
    exps.push_back(g.random_exponent(rng));
  }
  for (auto _ : state) {
    Gelt acc = g.one();
    for (std::size_t i = 0; i < k; ++i) {
      acc = g.mul(acc, g.pow(bases[i], exps[i]));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["terms"] = static_cast<double>(k);
}
BENCHMARK(BM_NaiveProductOfPows)->RangeMultiplier(2)->Range(2, 64)->Unit(benchmark::kMicrosecond);

void BM_EcScalarMul(benchmark::State& state) {
  // The elliptic-curve backend's cost anchor (secp256k1 or P-256).
  const Group g(state.range(0) == 0 ? CurveSpec::secp256k1()
                                    : CurveSpec::p256());
  ChaChaRng rng(5);
  const Gelt base = g.random_element(rng);
  const Bigint e = g.random_exponent(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.pow(base, e));
  }
  state.SetLabel(state.range(0) == 0 ? "secp256k1" : "P-256");
}
BENCHMARK(BM_EcScalarMul)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_FixedBasePow(benchmark::State& state) {
  const Group g(GroupParams::named(ParamId::kSec512));
  ChaChaRng rng(6);
  const Gelt base = g.random_element(rng);
  const FixedBaseTable table(g, base,
                             static_cast<std::size_t>(state.range(0)));
  const Bigint e = g.random_exponent(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pow(g, e));
  }
  state.counters["window_bits"] = static_cast<double>(state.range(0));
  state.counters["table_elems"] = static_cast<double>(table.table_size());
  state.counters["table_bytes"] = static_cast<double>(table.bytes());
}
BENCHMARK(BM_FixedBasePow)->DenseRange(2, 8)->Unit(benchmark::kMicrosecond);

void BM_FixedBaseBuild(benchmark::State& state) {
  const Group g(GroupParams::named(ParamId::kSec512));
  ChaChaRng rng(6);
  const Gelt base = g.random_element(rng);
  const std::size_t w = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FixedBaseTable(g, base, w));
  }
  state.counters["window_bits"] = static_cast<double>(w);
}
BENCHMARK(BM_FixedBaseBuild)->DenseRange(4, 8)->Unit(benchmark::kMillisecond);

void BM_GroupEncode(benchmark::State& state) {
  const Group g(GroupParams::named(ParamId::kSec512));
  ChaChaRng rng(4);
  const Bigint a = rng.uniform_below(g.order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfky::Gelt(Bigint((a + Bigint(1)) * (a + Bigint(1)) % g.p())));
  }
}
BENCHMARK(BM_GroupEncode);

}  // namespace

int main(int argc, char** argv) {
  using namespace dfky;
  benchjson::Report report("group");
  const std::size_t samples = benchjson::smoke() ? 3 : 25;
  {
    // Modexp anchors: n = bit length of p.
    for (const ParamId id : {ParamId::kTest128, ParamId::kSec512}) {
      const Group g(GroupParams::named(id));
      ChaChaRng rng(1);
      const Gelt base = g.random_element(rng);
      const Bigint e = g.random_exponent(rng);
      report.add_timed("modexp", g.p().bit_length(), 0, g.element_size(),
                       samples,
                       [&] { benchmark::DoNotOptimize(g.pow(base, e)); });
    }
  }
  {
    // Multiexp vs naive product at k = 16 terms (sec512).
    const Group g(GroupParams::named(ParamId::kSec512));
    ChaChaRng rng(2);
    const std::size_t k = 16;
    std::vector<Gelt> bases;
    std::vector<Bigint> exps;
    for (std::size_t i = 0; i < k; ++i) {
      bases.push_back(g.random_element(rng));
      exps.push_back(g.random_exponent(rng));
    }
    report.add_timed("multiexp", k, 0, 0, samples, [&] {
      benchmark::DoNotOptimize(multiexp(g, bases, exps));
    });
    // The system's tables (window kFixedBaseWindow): per-base build time
    // next to the pow it buys; the record's bytes field is the table size.
    const FixedBaseTable table(g, bases[0]);
    report.add_timed("fixedbase_build", g.p().bit_length(), 0, table.bytes(),
                     samples, [&] {
                       benchmark::DoNotOptimize(FixedBaseTable(g, bases[0]));
                     });
    report.add_timed("fixedbase_pow", g.p().bit_length(), 0, 0, samples, [&] {
      benchmark::DoNotOptimize(table.pow(g, exps[0]));
    });
  }
  if (!report.write()) return 1;
  if (benchjson::smoke()) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
