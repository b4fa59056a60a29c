// E8 — the extension algebra (§3.3-3.4): sizes and costs of ext(T, τ, P),
// plus computational confirmations of Lemma 6 (regularity) and Lemma 8
// (commutativity) at bench scale.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;
using namespace dmm::lower;

Template edge_template(int k) {
  colsys::ColourSystem edge(k);
  edge.add_child(colsys::ColourSystem::root(), 2);
  return Template(edge, {1, 1}, 1);
}

void print_rows() {
  std::printf("## E8: extension sizes (h-template + b-picker -> (h+b)-template)\n");
  std::printf("%4s %4s %4s %8s %10s %12s\n", "k", "h", "b", "depth", "|X|", "regular?");
  for (int b = 1; b <= 3; ++b) {
    const int k = 6;
    const Template t = edge_template(k);
    const Picker p = canonical_free_picker(t, b);
    for (int depth : {4, 6, 8}) {
      const Extension e = extend(t, p, depth);
      std::printf("%4d %4d %4d %8d %10d %12s\n", k, t.h(), b, depth, e.result.tree().size(),
                  e.result.tree().is_regular(1 + b) ? "yes" : "NO");
    }
  }
  std::printf("\n");
}

void BM_Extend(benchmark::State& state) {
  const Template t = edge_template(6);
  const Picker p = canonical_free_picker(t, 2);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(t, p, depth));
  }
}
BENCHMARK(BM_Extend)->Arg(6)->Arg(9)->Arg(12);

void BM_RealisationBall(benchmark::State& state) {
  const Template t = edge_template(6);
  const int radius = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(realisation_ball(t, colsys::ColourSystem::root(), radius));
  }
}
BENCHMARK(BM_RealisationBall)->Arg(3)->Arg(5)->Arg(7);

void BM_Lemma8BothOrders(benchmark::State& state) {
  // Cost of checking commutativity: ext-then-ext vs ext-by-union.
  const Template t = edge_template(6);
  Picker p, q;
  p.choices = {{3}, {3}};
  q.choices = {{4}, {5}};
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const Extension kp = extend(t, p, depth);
    Picker q_on_k;
    q_on_k.choices.resize(static_cast<std::size_t>(kp.result.tree().size()));
    for (colsys::NodeId v = 0; v < kp.result.tree().size(); ++v) {
      q_on_k.choices[static_cast<std::size_t>(v)] = q.at(kp.p[static_cast<std::size_t>(v)]);
    }
    const Extension lq = extend(kp.result, q_on_k, depth);
    const Extension xr = extend(t, union_picker(p, q), depth);
    benchmark::DoNotOptimize(
        colsys::ColourSystem::equal_to_radius(lq.result.tree(), xr.result.tree(), depth));
  }
}
BENCHMARK(BM_Lemma8BothOrders)->Arg(5)->Arg(7);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e8", argc, argv, print_rows);
}
