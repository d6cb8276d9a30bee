// Determinism guarantees of the parallel analysis driver and the query
// memo cache:
//   * an 8-thread corpus run produces results identical to the 1-thread
//     run (the same task graph, run on the calling thread);
//   * memoized verdicts equal cold (cache-disabled) verdicts no matter in
//     which order the queries arrive;
//   * a tiny cache capacity — constant eviction — never changes a verdict
//     (eviction only forgets);
//   * a loop's --explain evidence is the same at every thread count, even
//     when the loops of one program race for the same cold queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/fm_incremental.h"
#include "panorama/predicate/intern.h"
#include "panorama/predicate/predicate.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/arena.h"
#include "panorama/symbolic/constraint.h"
#include "wide_guard.h"

namespace panorama {
namespace {

/// Restores the global cache to its default configuration when a test ends,
/// so test order never matters.
struct CacheGuard {
  ~CacheGuard() { QueryCache::global().configure(QueryCache::kDefaultCapacity); }
};

std::string renderCorpus(const CorpusAnalysisResult& r) {
  std::ostringstream os;
  for (const CorpusRoutineResult& loop : r.loops) {
    os << loop.kernelId << " | " << loop.procName << " | line " << loop.line << " | "
       << toString(loop.classification) << '\n'
       << loop.report << '\n';
  }
  return os.str();
}

TEST(ParallelDriverTest, EveryThreadCountIdenticalToOneThread) {
  CacheGuard guard;
  AnalysisOptions serial;
  serial.numThreads = 1;
  CorpusAnalysisResult one = analyzeCorpusParallel(serial);
  ASSERT_FALSE(one.loops.empty());
  EXPECT_EQ(one.threadsUsed, 1u);
  std::string golden = renderCorpus(one);

  for (std::size_t threads : {2u, 4u, 8u}) {
    AnalysisOptions parallel;
    parallel.numThreads = threads;
    CorpusAnalysisResult run = analyzeCorpusParallel(parallel);
    ASSERT_EQ(one.loops.size(), run.loops.size()) << threads << " threads";
    // Byte-identical per-loop reports: classification, privatization
    // verdicts, reasons, scalar classes — everything the report renders.
    EXPECT_EQ(golden, renderCorpus(run)) << threads << " threads";
    EXPECT_EQ(run.threadsUsed, threads);
  }
}

// The two loops of the wide-guard kernel ask the same inconclusive FM
// queries; with the memo tables cleared before every run, threads race for
// who evaluates each one cold. The evidence must not tell who won.
TEST(ParallelDriverTest, ProvenanceIdenticalAtEveryThreadCountWhenLoopsRace) {
  CacheGuard guard;
  auto explain = [](std::size_t threads) {
    QueryCache::global().clear();
    clearSimplifyMemo();
    clearFmEliminationCache();
    DiagnosticEngine diags;
    auto program = parseProgram(wide_guard::kernel(), diags);
    EXPECT_TRUE(program.has_value()) << diags.str();
    if (!program) return std::string();
    AnalysisOptions options;
    options.numThreads = threads;
    ThreadPool pool(threads);
    ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
    EXPECT_TRUE(pa.ok) << pa.error;
    EXPECT_EQ(pa.loops.size(), 2u);
    std::string out;
    for (const LoopAnalysis& la : pa.loops) out += formatLoopAnalysis(la) + formatProvenance(la);
    return out;
  };
  const std::string golden = explain(1);
  ASSERT_NE(golden.find("why [dependence-test] flow -> unknown"), std::string::npos) << golden;
  for (std::size_t threads : {1u, 4u, 8u})
    for (int rep = 0; rep < 20; ++rep)
      ASSERT_EQ(explain(threads), golden) << threads << " threads, repetition " << rep;
}

TEST(ParallelDriverTest, QuantifiedKernelsParallelizeIdentically) {
  // PR-1 serialized quantified kernels because the ψ dimension slots were
  // process-global; with ψ threaded per analyzer the kernels overlap
  // freely and the reports must not move.
  CacheGuard guard;
  AnalysisOptions serial;
  serial.quantified = true;
  serial.numThreads = 1;
  CorpusAnalysisResult one = analyzeCorpusParallel(serial);
  ASSERT_FALSE(one.loops.empty());

  AnalysisOptions parallel;
  parallel.quantified = true;
  parallel.numThreads = 8;
  CorpusAnalysisResult eight = analyzeCorpusParallel(parallel);
  EXPECT_EQ(renderCorpus(one), renderCorpus(eight));
}

TEST(ParallelDriverTest, DeSetsNeverChangeAReport) {
  // DE sets are on demand because no verdict reads them. Computing them
  // anyway — serially or on 8 threads, which also keeps the DE path under
  // TSan — must leave every report and decision trail byte-identical.
  CacheGuard guard;
  for (bool quantified : {false, true}) {
    std::string golden;
    for (bool computeDE : {false, true}) {
      for (std::size_t threads : {1u, 8u}) {
        AnalysisOptions options;
        options.quantified = quantified;
        options.computeDE = computeDE;
        options.numThreads = threads;
        CorpusAnalysisResult run = analyzeCorpusParallel(options);
        ASSERT_FALSE(run.loops.empty());
        std::string rendered = renderCorpus(run);
        for (const CorpusRoutineResult& loop : run.loops) rendered += loop.provenance;
        if (golden.empty()) golden = rendered;
        EXPECT_EQ(golden, rendered) << "quantified=" << quantified
                                    << " computeDE=" << computeDE << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelDriverTest, EveryAblationIdenticalAtEveryThreadCount) {
  // Each of the 2^3 settings of the Table 1 techniques (T1 symbolic
  // analysis, T2 IF conditions, T3 interprocedural) takes its own paths
  // through the analyzer's per-procedure slots: T1 off reads the DO-index
  // sets, T3 off reads callees' escaping scalars but maps no callee
  // summary. Every setting must report the same at 4 and 8 threads as at
  // 1 thread.
  CacheGuard guard;
  for (int mask = 0; mask < 8; ++mask) {
    std::string golden;
    for (std::size_t threads : {1u, 4u, 8u}) {
      AnalysisOptions options;
      options.symbolicAnalysis = (mask & 1) != 0;
      options.ifConditions = (mask & 2) != 0;
      options.interprocedural = (mask & 4) != 0;
      options.numThreads = threads;
      CorpusAnalysisResult run = analyzeCorpusParallel(options);
      ASSERT_FALSE(run.loops.empty());
      std::string rendered = renderCorpus(run);
      for (const CorpusRoutineResult& loop : run.loops) rendered += loop.provenance;
      if (threads == 1) golden = rendered;
      EXPECT_EQ(golden, rendered) << "symbolic=" << options.symbolicAnalysis
                                  << " ifConditions=" << options.ifConditions
                                  << " interprocedural=" << options.interprocedural
                                  << " threads=" << threads;
    }
  }
}

TEST(ParallelDriverTest, CacheDisabledIdenticalToDefault) {
  CacheGuard guard;
  AnalysisOptions options;
  options.numThreads = 1;
  QueryCache::global().configure(0);
  CorpusAnalysisResult uncached = analyzeCorpusParallel(options);
  EXPECT_EQ(uncached.cacheStats.hits, 0u);
  EXPECT_EQ(uncached.cacheStats.entries, 0u);

  QueryCache::global().configure(QueryCache::kDefaultCapacity);
  CorpusAnalysisResult cached = analyzeCorpusParallel(options);
  EXPECT_GT(cached.cacheStats.hits, 0u);

  EXPECT_EQ(renderCorpus(uncached), renderCorpus(cached));
}

/// A deterministic batch of small constraint systems plus implication
/// queries exercising every cache tag.
struct QueryBatch {
  std::vector<ConstraintSet> systems;
  std::vector<std::pair<Pred, Pred>> implications;

  static QueryBatch make() {
    QueryBatch b;
    std::mt19937 rng(20260806);
    std::uniform_int_distribution<int> coeff(-3, 3);
    std::uniform_int_distribution<int> constant(-8, 8);
    std::uniform_int_distribution<int> kindPick(0, 5);
    std::uniform_int_distribution<int> countPick(1, 4);
    SymExpr x = SymExpr::variable(VarId{1});
    SymExpr y = SymExpr::variable(VarId{2});
    SymExpr z = SymExpr::variable(VarId{3});
    auto randExpr = [&] {
      return x * SymExpr::constant(coeff(rng)) + y * SymExpr::constant(coeff(rng)) +
             z * SymExpr::constant(coeff(rng)) + SymExpr::constant(constant(rng));
    };
    for (int k = 0; k < 120; ++k) {
      ConstraintSet cs;
      int n = countPick(rng);
      for (int c = 0; c < n; ++c) {
        int kind = kindPick(rng);
        if (kind <= 3)
          cs.addExprLE0(randExpr());
        else if (kind == 4)
          cs.addExprEQ0(randExpr());
        else
          cs.addExprNE0(randExpr());
      }
      b.systems.push_back(std::move(cs));
    }
    auto randPred = [&] {
      Pred p = Pred::atom(Atom::le(randExpr(), randExpr()));
      if (kindPick(rng) >= 3) p = p && Pred::atom(Atom::le(randExpr(), randExpr()));
      if (kindPick(rng) >= 4) p = p || Pred::atom(Atom::eq(randExpr(), randExpr()));
      return p;
    };
    for (int k = 0; k < 120; ++k) b.implications.emplace_back(randPred(), randPred());
    // Duplicate a slice so re-asked queries actually hit the cache.
    for (int k = 0; k < 40; ++k) {
      b.systems.push_back(b.systems[static_cast<std::size_t>(k) * 2]);
      b.implications.push_back(b.implications[static_cast<std::size_t>(k) * 2]);
    }
    return b;
  }

  /// Evaluates every query in the order given by `perm` (indices into the
  /// combined query list) and returns verdicts at the queries' own indices,
  /// so results from different evaluation orders are directly comparable.
  std::vector<Truth> evaluate(const std::vector<std::size_t>& perm) const {
    std::vector<Truth> verdicts(systems.size() + implications.size(), Truth::Unknown);
    for (std::size_t q : perm) {
      if (q < systems.size())
        verdicts[q] = systems[q].contradictory();
      else {
        const auto& [hyp, goal] = implications[q - systems.size()];
        verdicts[q] = hyp.implies(goal);
      }
    }
    return verdicts;
  }

  std::vector<std::size_t> identityOrder() const {
    std::vector<std::size_t> perm(systems.size() + implications.size());
    for (std::size_t k = 0; k < perm.size(); ++k) perm[k] = k;
    return perm;
  }
};

TEST(ParallelDriverTest, CachedVerdictsMatchColdAcrossRandomizedOrders) {
  CacheGuard guard;
  QueryBatch batch = QueryBatch::make();
  std::vector<std::size_t> order = batch.identityOrder();

  // Cold reference: cache disabled, every query answered from scratch.
  QueryCache::global().configure(0);
  std::vector<Truth> cold = batch.evaluate(order);

  std::mt19937 rng(7);
  for (int round = 0; round < 5; ++round) {
    QueryCache::global().configure(QueryCache::kDefaultCapacity);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<Truth> warm = batch.evaluate(order);
    EXPECT_EQ(cold, warm) << "round " << round;
    EXPECT_GT(QueryCache::global().stats().hits, 0u) << "round " << round;
  }
}

TEST(ParallelDriverTest, TinyCapacityEvictionNeverChangesVerdicts) {
  CacheGuard guard;
  QueryBatch batch = QueryBatch::make();
  std::vector<std::size_t> order = batch.identityOrder();

  QueryCache::global().configure(0);
  std::vector<Truth> cold = batch.evaluate(order);

  // 16 entries over 16 shards: at most one resident entry per shard, so
  // almost every store evicts. Verdicts must not move.
  QueryCache::global().configure(16);
  std::vector<Truth> tiny = batch.evaluate(order);
  EXPECT_EQ(cold, tiny);
  QueryCache::Stats stats = QueryCache::global().stats();
  EXPECT_GT(stats.evictions, 0u);

  // Second pass over a thrashing cache (mostly misses) — still identical.
  std::vector<Truth> again = batch.evaluate(order);
  EXPECT_EQ(cold, again);
}

TEST(ParallelDriverTest, CachedContradictoryMatchesUncachedTwin) {
  CacheGuard guard;
  QueryBatch batch = QueryBatch::make();
  QueryCache::global().configure(QueryCache::kDefaultCapacity);
  for (const ConstraintSet& cs : batch.systems) {
    EXPECT_EQ(cs.contradictory(), cs.contradictoryUncached());
    // Ask twice: the second answer is the memoized one.
    EXPECT_EQ(cs.contradictory(), cs.contradictoryUncached());
  }
}

TEST(ParallelDriverTest, ConcurrentInterningYieldsOneNodePerValue) {
  // Hash-consing under contention: eight threads race to build the same
  // deterministic value stream (plus a thread-private prefix so insertions
  // interleave with lookups). Every thread must observe the identical node
  // ids and atom keys — one node or table entry per value, no torn
  // publications — and the first negated() call on each shared atom races
  // across threads to store the negation. The TSan CI job runs this binary,
  // so any locking mistake in the arenas or the atom table surfaces here.
  constexpr int kThreads = 8;
  constexpr int kValues = 2000;
  std::vector<std::vector<std::uint64_t>> exprIds(kThreads);
  std::vector<std::vector<std::uint64_t>> predIds(kThreads);
  std::vector<std::vector<std::uint64_t>> atomKeys(kThreads);
  std::latch start(kThreads);

  auto worker = [&](int t) {
    std::mt19937 rng(20260806);  // same seed: same value stream everywhere
    std::uniform_int_distribution<int> c(-40, 40);
    std::uniform_int_distribution<int> var(1, 6);
    start.arrive_and_wait();
    // Thread-private warmup desynchronizes the shards' insertion order.
    for (int k = 0; k < 64; ++k)
      (void)(SymExpr::variable(VarId{static_cast<std::uint32_t>(var(rng))}) +
             SymExpr::constant(c(rng) * 1000 + t));
    for (int k = 0; k < kValues; ++k) {
      SymExpr x = SymExpr::variable(VarId{static_cast<std::uint32_t>(var(rng))});
      SymExpr y = SymExpr::variable(VarId{static_cast<std::uint32_t>(var(rng))});
      SymExpr e = x * SymExpr::constant(c(rng)) + y + SymExpr::constant(c(rng));
      exprIds[t].push_back(e.id());
      Atom le = Atom::le(e, y);
      Atom ne = Atom::ne(x, SymExpr::constant(c(rng)));
      for (const Atom& a : {le, le.negated(), ne, ne.negated()})
        atomKeys[t].push_back(atomKey(a));
      Pred p = Pred::atom(le) && Pred::atom(ne);
      predIds[t].push_back(p.id());
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(exprIds[0], exprIds[t]) << "thread " << t;
    EXPECT_EQ(predIds[0], predIds[t]) << "thread " << t;
    EXPECT_EQ(atomKeys[0], atomKeys[t]) << "thread " << t;
  }
  // Occupancy stayed sane (stats take the shard locks — also TSan-checked).
  EXPECT_GT(ExprArena::global().stats().distinct, 0u);
  EXPECT_GT(PredArena::global().stats().distinct, 0u);
  EXPECT_GT(atomTableStats().negations, 0u);
}

TEST(ParallelDriverTest, SemaPublishesTheCallGraph) {
  // The one call graph: each procedure's resolved callees, each once, in
  // name order. The scheduler and the session both read these edges.
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      subroutine leaf(a, n)
      real a(100)
      integer n, i
      do i = 1, n
        a(i) = 0.0
      end do
      end

      subroutine mid(a, n)
      real a(100)
      integer n
      call leaf(a, n)
      call leaf(a, n)
      end

      program top
      real a(100)
      integer n
      n = 10
      call mid(a, n)
      call leaf(a, n)
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sema = analyze(*p, diags);
  ASSERT_TRUE(sema.has_value()) << diags.str();

  auto calleeNames = [&](const char* name) {
    std::vector<std::string> out;
    for (const Procedure* callee : sema->of(*p->findProcedure(name)).callees)
      out.push_back(callee->name);
    return out;
  };
  EXPECT_TRUE(calleeNames("leaf").empty());
  EXPECT_EQ(calleeNames("mid"), std::vector<std::string>{"leaf"});
  EXPECT_EQ(calleeNames("top"), (std::vector<std::string>{"leaf", "mid"}));
  for (const Procedure& proc : p->procedures)
    for (const Procedure* callee : sema->of(proc).callees)
      EXPECT_EQ(callee, p->findProcedure(callee->name)) << "edges point into the program";

  std::vector<std::string> order;
  for (const Procedure* proc : sema->bottomUpOrder) order.push_back(proc->name);
  EXPECT_EQ(order, (std::vector<std::string>{"leaf", "mid", "top"}));
}

// A call diamond (top → l, r → base) plus a chain (top → c1 → c2 → c3),
// with loops in every procedure.
constexpr const char* kDiamondAndChain = R"(
      subroutine base(a, n)
      real a(100)
      integer n, i
      do i = 1, n
        a(i) = 0.0
      end do
      end

      subroutine l(a, n)
      real a(100)
      integer n, i
      call base(a, n)
      do i = 1, n
        a(i) = a(i) + 1.0
      end do
      end

      subroutine r(a, n)
      real a(100)
      integer n, i
      do i = 1, n
        a(i) = 2.0
      end do
      call base(a, n)
      end

      subroutine c3(b, n)
      real b(100)
      integer n, j
      do j = 1, n
        b(j) = 1.0
      end do
      end

      subroutine c2(b, n)
      real b(100)
      integer n
      call c3(b, n)
      end

      subroutine c1(b, n)
      real b(100)
      integer n, j
      call c2(b, n)
      do j = 2, n
        b(j) = b(j - 1)
      end do
      end

      program top
      real a(100), b(100)
      integer n, k
      n = 50
      call l(a, n)
      call r(a, n)
      call c1(b, n)
      do k = 1, n
        a(k) = b(k)
      end do
      end
)";

TEST(ParallelDriverTest, CallersSummarizeAfterTheirCallees) {
  // The dependency schedule at 4 threads, read from the trace: every
  // procedure is summarized exactly once, and a caller's summary starts
  // only after each of its callees' summaries has ended.
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  DiagnosticEngine diags;
  auto program = parseProgram(kDiamondAndChain, diags);
  ASSERT_TRUE(program.has_value()) << diags.str();
  AnalysisOptions options;
  options.numThreads = 4;
  ThreadPool pool(4);
  obs::Tracer::global().enable();
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), options, pool);
  obs::Tracer::global().disable();
  ASSERT_TRUE(pa.ok) << pa.error;
  EXPECT_EQ(pa.loops.size(), 6u);

  std::map<std::string, std::vector<obs::TraceEvent>> spans;
  for (obs::TraceEvent& e : obs::Tracer::global().snapshot())
    if (std::string_view(e.category) == "summary.proc") spans[e.name].push_back(std::move(e));
  obs::Tracer::global().clear();
  ASSERT_EQ(spans.size(), pa.program.procedures.size());
  for (const auto& [name, list] : spans) EXPECT_EQ(list.size(), 1u) << name;

  for (const Procedure& proc : pa.program.procedures) {
    const obs::TraceEvent& caller = spans.at(proc.name).front();
    for (const Procedure* callee : pa.sema.of(proc).callees) {
      const obs::TraceEvent& done = spans.at(callee->name).front();
      EXPECT_GE(caller.startNs, done.startNs + done.durNs) << proc.name << " after " << callee->name;
    }
  }
}

TEST(ParallelDriverTest, AnalysisLeavesTheSymbolTableFrozen) {
  // The analyzer's constructor interns every symbol analysis needs (each
  // DO index's primed copy, ψ1, the quantified relation keys), so the
  // analysis itself, at 4 threads, only reads the table: on every corpus
  // kernel, and with the ArrayPred atoms of MDG interf under quantified.
  std::vector<std::string> sources{kDiamondAndChain};
  for (const CorpusLoop& kernel : perfectCorpus()) sources.push_back(kernel.source);
  ThreadPool pool(4);
  for (bool quantified : {false, true}) {
    for (const std::string& source : sources) {
      DiagnosticEngine diags;
      auto program = parseProgram(source, diags);
      ASSERT_TRUE(program.has_value()) << diags.str();
      auto sema = analyze(*program, diags);
      ASSERT_TRUE(sema.has_value()) << diags.str();
      Hsg hsg = buildHsg(*program, diags);
      AnalysisOptions options;
      options.quantified = quantified;
      SummaryAnalyzer analyzer(*program, *sema, hsg, options);
      const std::size_t frozen = sema->symbols.size();
      std::size_t loops = 0;
      for (const Procedure* proc : sema->bottomUpOrder) loops += collectDoLoops(proc->body).size();
      std::vector<LoopAnalysis> out =
          analyzeProgramParallel(analyzer, pool, summarizeEveryLoop(analyzer));
      EXPECT_EQ(out.size(), loops);
      EXPECT_EQ(sema->symbols.size(), frozen) << "quantified=" << quantified;
    }
  }
}

}  // namespace
}  // namespace panorama
