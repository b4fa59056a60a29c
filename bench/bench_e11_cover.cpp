// E11 — Remark 1: extensions as universal covers of looped multigraphs.
// Prints the structural agreement table and times both constructions.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "core/dmm.hpp"

namespace {

using namespace dmm;
using namespace dmm::lower;

void print_rows() {
  std::printf("## E11: ext(T, tau, P) vs universal cover of looped Gamma_k(T)\n");
  std::printf("%6s %8s %10s %10s %10s\n", "depth", "k", "|ext|", "|cover|", "equal?");
  for (int depth : {4, 6, 8, 10}) {
    const int k = 5;
    colsys::ColourSystem edge(k);
    edge.add_child(colsys::ColourSystem::root(), 2);
    const Template tmpl(edge, {1, 1}, 1);
    Picker p;
    p.choices = {{3, 4}, {5}};
    const Extension e = extend(tmpl, p, depth);

    cover::Multigraph g(2, k);
    g.add_edge(0, 1, 2);
    g.add_loop(0, 3);
    g.add_loop(0, 4);
    g.add_loop(1, 5);
    const colsys::ColourSystem cov = cover::universal_cover(g, 0, depth);
    std::printf("%6d %8d %10d %10d %10s\n", depth, k, e.result.tree().size(), cov.size(),
                colsys::ColourSystem::equal_to_radius(e.result.tree(), cov, depth) ? "yes"
                                                                                   : "NO");
  }
  std::printf("\n");
}

void BM_UniversalCover(benchmark::State& state) {
  cover::Multigraph g(2, 5);
  g.add_edge(0, 1, 2);
  g.add_loop(0, 3);
  g.add_loop(0, 4);
  g.add_loop(1, 5);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cover::universal_cover(g, 0, depth));
  }
}
BENCHMARK(BM_UniversalCover)->Arg(6)->Arg(8)->Arg(10);

void BM_ExtensionSameObject(benchmark::State& state) {
  colsys::ColourSystem edge(5);
  edge.add_child(colsys::ColourSystem::root(), 2);
  const Template tmpl(edge, {1, 1}, 1);
  Picker p;
  p.choices = {{3, 4}, {5}};
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(tmpl, p, depth));
  }
}
BENCHMARK(BM_ExtensionSameObject)->Arg(6)->Arg(8)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  return dmm::benchjson::run_table_experiment("e11", argc, argv, print_rows);
}
