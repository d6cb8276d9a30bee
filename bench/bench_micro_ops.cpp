// Microbenchmarks for the primitive operations behind the analysis —
// supporting Figure 4's practicality claim with per-operation costs:
// symbolic arithmetic, predicate simplification and implication, range and
// region set operations, GAR difference, and the expansion function.
//
// Registered with the unified harness: run() drives google-benchmark
// programmatically (forwarding any --benchmark_* flags the entry point
// collected) and records each BM_* real time as an *ungated* metric —
// sub-microsecond timings drown in shared-runner noise, so they go into the
// snapshot history but never trip the regression gate.
#include <benchmark/benchmark.h>

#include "harness.h"
#include "panorama/region/gar.h"

namespace panorama {
namespace {

struct Fixture {
  SymbolTable tab;
  ArrayTable arrays;
  VarId i = tab.intern("i");
  VarId n = tab.intern("n");
  VarId m = tab.intern("m");
  SymExpr I = SymExpr::variable(i);
  SymExpr N = SymExpr::variable(n);
  SymExpr M = SymExpr::variable(m);
  SymExpr one = SymExpr::constant(1);
  ArrayId A = arrays.intern("a", {SymRange{one, SymExpr::constant(1000), one}});
  CmpCtx ctx;
};

Fixture& fx() {
  static Fixture f;
  return f;
}

void BM_SymExprArithmetic(benchmark::State& state) {
  Fixture& f = fx();
  for (auto _ : state) {
    SymExpr e = (f.I.mulConst(3) + f.N - 2) * (f.M + 1) - f.I * f.M;
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_SymExprArithmetic);

void BM_SymExprSubstitute(benchmark::State& state) {
  Fixture& f = fx();
  SymExpr e = f.I.mulConst(2) + f.N * f.M - 7;
  for (auto _ : state) {
    SymExpr r = e.substitute(f.i, f.N + 5);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SymExprSubstitute);

// ----- hash-consed handle primitives (the interned-core PR's hot path) -----
// Equality and hashing used to walk whole term lists; with hash-consing
// both are O(1) on the 8-byte handle. These benches document the delta.

void BM_ExprEqualityInterned(benchmark::State& state) {
  Fixture& f = fx();
  // Two handles built through different routes; hash-consing makes them the
  // same node, so the compare is a pointer test, not a term-list walk.
  SymExpr a = (f.I + f.N) * (f.M + 1) + f.I.mulConst(7) - 3;
  SymExpr b = (f.N + f.I) * (f.M + 1) + f.I.mulConst(7) - 3;
  for (auto _ : state) {
    bool eq = a == b;
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_ExprEqualityInterned);

void BM_ExprHashCached(benchmark::State& state) {
  Fixture& f = fx();
  SymExpr e = (f.I + f.N) * (f.M + 1) + f.I.mulConst(7) - 3;
  for (auto _ : state) {
    std::size_t h = e.hashValue();
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ExprHashCached);

void BM_ExprInternHit(benchmark::State& state) {
  Fixture& f = fx();
  // Rebuilding an already-interned value: normalization plus one sharded
  // arena lookup that lands on the existing node.
  for (auto _ : state) {
    SymExpr e = f.I.mulConst(5) + f.N.mulConst(3) - f.M + 11;
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_ExprInternHit);

void BM_PredEqualityInterned(benchmark::State& state) {
  Fixture& f = fx();
  Pred a = Pred::atom(Atom::le(f.I, f.N)) && Pred::atom(Atom::ge(f.I, f.one));
  Pred b = Pred::atom(Atom::ge(f.I, f.one)) && Pred::atom(Atom::le(f.I, f.N));
  for (auto _ : state) {
    bool eq = a == b;
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_PredEqualityInterned);

// ----- interned atoms -----
// Every atom factory interns its result in the atom table, which stores the
// atom's negation the first time negated() derives it: a repeat negation is
// a table read, and the pairwise simplifier tests built on it
// (atomImplies = atomsContradict(a, ¬b)) cost one verdict-cache lookup.

void BM_AtomNegated(benchmark::State& state) {
  Fixture& f = fx();
  Atom a = Atom::le(f.I.mulConst(2) + f.N, f.M - 3);
  (void)a.negated();  // derive once; the loop measures the stored read
  for (auto _ : state) {
    Atom n = a.negated();
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_AtomNegated);

void BM_AtomImplies(benchmark::State& state) {
  Fixture& f = fx();
  Atom strong = Atom::le(f.I, f.N);
  Atom weak = Atom::le(f.I, f.N + 3);
  (void)atomImplies(strong, weak);  // the pair's verdict is cached from here on
  for (auto _ : state) {
    Truth t = atomImplies(strong, weak);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_AtomImplies);

void BM_PredicateSimplify(benchmark::State& state) {
  Fixture& f = fx();
  for (auto _ : state) {
    Pred p = Pred::atom(Atom::le(f.I, f.N)) && Pred::atom(Atom::ge(f.I, f.one)) &&
             Pred::atom(Atom::le(f.I, f.N + 5)) && Pred::atom(Atom::le(f.one - 1, f.I));
    p.simplify();
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PredicateSimplify);

void BM_PredicateImplies(benchmark::State& state) {
  Fixture& f = fx();
  Pred strong = Pred::atom(Atom::le(f.I, f.N)) && Pred::atom(Atom::ge(f.I, f.one));
  Pred weak = Pred::atom(Atom::le(f.I, f.N + 3));
  for (auto _ : state) {
    Truth t = strong.implies(weak);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PredicateImplies);

// ----- allocation-free hits -----
// A repeat comparison builds its FM key in a reused per-thread buffer and
// looks it up borrowed; a repeat conjunction merges two canonical clause
// lists in a reused buffer and lands on the interned node.

void BM_CmpLeHit(benchmark::State& state) {
  Fixture& f = fx();
  ConstraintSet cs;
  cs.addExprLE0(f.I - f.N);    // i <= n
  cs.addExprLE0(f.one - f.I);  // i >= 1
  const CmpCtx ctx(cs);
  (void)ctx.le(f.I, f.N + 1);  // the verdict is cached from here on
  for (auto _ : state) {
    Truth t = ctx.le(f.I, f.N + 1);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_CmpLeHit);

void BM_PredAndHit(benchmark::State& state) {
  Fixture& f = fx();
  Pred a = Pred::atom(Atom::le(f.I, f.N)) && Pred::atom(Atom::ge(f.I, f.one));
  Pred b = Pred::atom(Atom::le(f.N, f.M));
  (void)(a && b);  // interned from here on
  for (auto _ : state) {
    Pred p = a && b;
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PredAndHit);

void BM_FourierMotzkin(benchmark::State& state) {
  Fixture& f = fx();
  ConstraintSet cs;
  cs.addExprLE0(f.I - f.N);
  cs.addExprLE0(f.one - f.I);
  cs.addExprLE0(f.N - f.M);
  cs.addExprLE0(f.M - SymExpr::constant(100));
  for (auto _ : state) {
    Truth t = cs.impliesLE0(f.I - SymExpr::constant(100));
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_FourierMotzkin);

void BM_RangeIntersectSymbolic(benchmark::State& state) {
  Fixture& f = fx();
  SymRange r1{f.I, f.N, f.one};
  SymRange r2{f.one, f.M, f.one};
  for (auto _ : state) {
    auto r = rangeIntersect(r1, r2, f.ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RangeIntersectSymbolic);

void BM_GarSubtract(benchmark::State& state) {
  Fixture& f = fx();
  GarList use = GarList::single(
      Gar::make(Pred::makeTrue(), Region{f.A, {SymRange{f.one, f.N, f.one}}}));
  GarList mod = GarList::single(
      Gar::make(Pred::atom(Atom::le(f.M, f.N)), Region{f.A, {SymRange{f.M, f.N, f.one}}}));
  for (auto _ : state) {
    GarList r = garSubtract(use, mod, f.ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GarSubtract);

void BM_Expansion(benchmark::State& state) {
  Fixture& f = fx();
  GarList list = GarList::single(Gar::make(Pred::atom(Atom::le(f.I, f.M)),
                                           Region{f.A, {SymRange::point(f.I)}}));
  LoopBounds bounds{f.i, f.one, f.N, f.one};
  for (auto _ : state) {
    GarList r = expandByIndex(list, bounds, f.ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Expansion);

void BM_IntersectionEmptinessProof(benchmark::State& state) {
  Fixture& f = fx();
  // The Figure 1(c) pattern: complementary guards.
  VarId x = f.tab.intern("x");
  SymExpr X = SymExpr::variable(x);
  GarList a = GarList::single(Gar::make(Pred::atom(Atom::rle(X, SymExpr::constant(100))),
                                        Region{f.A, {SymRange{f.one, f.M, f.one}}}));
  GarList b = GarList::single(Gar::make(Pred::atom(Atom::rlt(SymExpr::constant(100), X)),
                                        Region{f.A, {SymRange{f.one, f.M, f.one}}}));
  for (auto _ : state) {
    Truth t = garIntersectionEmpty(a, b, f.ctx);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_IntersectionEmptinessProof);

/// ConsoleReporter that also captures each run's name and adjusted real
/// time, so the harness can record them as metrics.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<std::pair<std::string, double>> runs;

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report)
      if (!r.error_occurred) runs.emplace_back(r.benchmark_name(), r.GetAdjustedRealTime());
    ConsoleReporter::ReportRuns(report);
  }
};

bench::BenchResult run() {
  std::vector<std::string> args;
  args.push_back("bench_micro_ops");
  for (const std::string& a : bench::extraArgs()) args.push_back(a);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  benchmark::Initialize(&argc, argv.data());

  CaptureReporter reporter;
  std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);

  bench::BenchResult result;
  for (const auto& [name, ns] : reporter.runs)
    result.add(name + "_ns", ns, bench::Direction::LowerIsBetter, 3.0, "ns").gated = false;
  if (ran == 0) result.fail("google-benchmark ran no benchmarks");
  return result;
}

const bench::Registration reg{{"micro_ops", /*repetitions=*/1, /*warmup=*/0, run}};

}  // namespace
}  // namespace panorama
