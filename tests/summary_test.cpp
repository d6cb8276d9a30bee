// Tests for the §4.1 summary algorithms: block folding, IF-condition
// guards, on-the-fly substitution, loop expansion (MOD_i / UE_i / MOD_{<i}),
// and interprocedural mapping — culminating in the paper's Figure 5
// derivation, checked semantically. The last case pins the invariants the
// GAR simplifier's first pass relies on, over every summary GAR of the
// corpus and of random kernels.
#include <gtest/gtest.h>

#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/summary/summary.h"
#include "program_gen.h"

namespace panorama {
namespace {

using ElementSet = std::set<std::vector<std::int64_t>>;

struct Analyzed {
  ProgramAnalysis pa;

  const Procedure& proc(std::string_view name) const {
    const Procedure* p = pa.program.findProcedure(name);
    EXPECT_NE(p, nullptr);
    return *p;
  }
  VarId var(std::string_view procName, std::string_view local) const {
    auto id = pa.sema.procs.at(std::string(procName)).scalarId(local);
    EXPECT_TRUE(id.has_value());
    return *id;
  }
  ArrayId arr(std::string_view procName, std::string_view local) const {
    auto id = pa.sema.procs.at(std::string(procName)).arrayId(local);
    EXPECT_TRUE(id.has_value());
    return *id;
  }
  const LoopSummary& loop(std::string_view procName, std::size_t index = 0) const {
    std::vector<const Stmt*> loops = collectDoLoops(proc(procName).body);
    EXPECT_LT(index, loops.size());
    const LoopSummary* ls = pa.analyzer->loopSummary(loops[index]);
    EXPECT_NE(ls, nullptr);
    return *ls;
  }
};

Analyzed analyzeSource(std::string_view src, AnalysisOptions options = {}) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  Analyzed a{analyzeProgramUnit(p ? std::move(*p) : Program{}, options, pool)};
  EXPECT_TRUE(a.pa.ok) << a.pa.error;
  return a;
}

ElementSet evalList(const GarList& list, ArrayId array, const Binding& b,
                    bool* undecided = nullptr) {
  ElementSet out;
  for (const Gar& g : list.gars()) {
    if (g.array() != array) continue;
    auto e = g.enumerate(b);
    if (!e) {
      if (undecided) *undecided = true;
      continue;
    }
    out.insert(e->begin(), e->end());
  }
  return out;
}

ElementSet points(std::initializer_list<std::int64_t> xs) {
  ElementSet out;
  for (auto x : xs) out.insert({x});
  return out;
}

TEST(SummaryTest, ProcedureModAndUe) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b)
      real a(10), b(10)
      a(1) = b(2) + 1
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {}), points({1}));
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "b"), {}), points({2}));
  EXPECT_TRUE(evalList(ps.ue, a.arr("s", "a"), {}).empty());
}

TEST(SummaryTest, WriteKillsLaterUse) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, x)
      real a(10), x
      a(1) = 3
      x = a(1) + a(2)
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  // a(1) is written before its use: only a(2) is upward exposed.
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "a"), {}), points({2}));
}

TEST(SummaryTest, SelfReferenceIsExposed) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a)
      real a(10)
      a(1) = a(1) + 1
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "a"), {}), points({1}));
}

TEST(SummaryTest, IfConditionGuardsKill) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, x, n)
      real a(10), x
      integer n
      if (n .gt. 0) then
        a(1) = 1
      endif
      x = a(1)
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  VarId n = a.var("s", "n");
  // Exposed exactly when the write did not happen: n <= 0.
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "a"), {{n, 5}}), points({}));
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "a"), {{n, 0}}), points({1}));
  // MOD is guarded the same way.
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{n, 5}}), points({1}));
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{n, -1}}), points({}));
}

TEST(SummaryTest, TwoSidedIfMerges) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, x, n)
      real a(10), x
      integer n
      if (n .gt. 0) then
        a(1) = 1
      else
        a(1) = 2
      endif
      x = a(1)
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  VarId n = a.var("s", "n");
  // Written on both paths: never exposed; MOD unconditional after merge.
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "a"), {{n, 1}}), points({}));
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "a"), {{n, 0}}), points({}));
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{n, 0}}), points({1}));
}

TEST(SummaryTest, OnTheFlySubstitution) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, j)
      real a(20)
      integer j, k
      k = j + 1
      a(k) = 0
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  VarId j = a.var("s", "j");
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{j, 4}}), points({5}));
}

TEST(SummaryTest, SubstitutionChain) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, j)
      real a(20)
      integer j, k, m
      k = j + 1
      m = k * 2
      a(m) = 0
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  VarId j = a.var("s", "j");
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{j, 4}}), points({10}));
}

TEST(SummaryTest, UnlowerableRhsDegradesNotLies) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, j)
      real a(20), b(20)
      integer j, k
      k = b(j)
      a(k) = 0
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  bool undecided = false;
  evalList(ps.mod, a.arr("s", "a"), {{a.var("s", "j"), 1}}, &undecided);
  EXPECT_TRUE(undecided);  // the write exists but its target is Ω/Δ
  EXPECT_FALSE(ps.mod.forArray(a.arr("s", "a")).empty());
}

TEST(SummaryTest, SimpleLoopExpansion) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, n)
      real a(100), b(100)
      integer n
      do i = 1, n
        a(i) = b(i + 1)
      enddo
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("s"));
  VarId n = a.var("s", "n");
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{n, 4}}), points({1, 2, 3, 4}));
  EXPECT_EQ(evalList(ps.ue, a.arr("s", "b"), {{n, 3}}), points({2, 3, 4}));
  EXPECT_EQ(evalList(ps.mod, a.arr("s", "a"), {{n, 0}}), points({}));  // zero-trip
}

TEST(SummaryTest, PerIterationSetsAndPrior) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, n)
      real a(100)
      integer n
      do i = 1, n
        a(i) = a(i - 1) + 1
      enddo
      end
  )");
  const LoopSummary& ls = a.loop("s");
  ASSERT_TRUE(ls.boundsKnown);
  VarId i = ls.bounds.index;
  VarId n = a.var("s", "n");
  ArrayId arr = a.arr("s", "a");
  // MOD_i = {i}; UE_i = {i-1}; MOD_{<i} = (1 : i-1).
  EXPECT_EQ(evalList(ls.modIter, arr, {{i, 5}, {n, 9}}), points({5}));
  EXPECT_EQ(evalList(ls.ueIter, arr, {{i, 5}, {n, 9}}), points({4}));
  EXPECT_EQ(evalList(ls.modBefore, arr, {{i, 5}, {n, 9}}), points({1, 2, 3, 4}));
  EXPECT_EQ(evalList(ls.modAfter, arr, {{i, 5}, {n, 9}}), points({6, 7, 8, 9}));
  // Whole-loop UE: only a(0) (the i=1 iteration's read survives the kill).
  EXPECT_EQ(evalList(ls.ue, arr, {{n, 9}}), points({0}));
}

TEST(SummaryTest, WorkArrayPatternHasEmptyIterUe) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, n, m)
      real a(100), b(100)
      integer n, m
      do i = 1, n
        do j = 1, m
          a(j) = i + j
        enddo
        do j = 1, m
          b(j) = a(j) * 2
        enddo
      enddo
      end
  )");
  const LoopSummary& ls = a.loop("s");  // outermost (i) loop
  ArrayId arr = a.arr("s", "a");
  VarId m = a.var("s", "m");
  VarId i = ls.bounds.index;
  // Within one i-iteration every read of `a` is preceded by its write.
  EXPECT_EQ(evalList(ls.ueIter, arr, {{i, 2}, {m, 6}, {a.var("s", "n"), 5}}), points({}));
  EXPECT_EQ(evalList(ls.modIter, arr, {{i, 2}, {m, 6}, {a.var("s", "n"), 5}}),
            points({1, 2, 3, 4, 5, 6}));
}

TEST(SummaryTest, LoopVariantScalarPoisons) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, n)
      real a(100)
      integer n, k
      k = 0
      do i = 1, n
        a(k) = 1
        k = k + 1
      enddo
      end
  )");
  const LoopSummary& ls = a.loop("s");
  ArrayId arr = a.arr("s", "a");
  // `k` at body entry depends on the previous iteration: MOD_i must be
  // undecidable rather than wrong.
  bool undecided = false;
  evalList(ls.modIter, arr, {{ls.bounds.index, 3}, {a.var("s", "n"), 5}}, &undecided);
  EXPECT_TRUE(undecided);
}

TEST(SummaryTest, InterproceduralGuardedSummary) {
  // The Figure 1(c) shape: a guarded early return in the callee becomes a
  // guard on the caller-visible MOD set.
  Analyzed a = analyzeSource(R"(
      program main
      real a(100)
      real x
      integer m
      call in(a, x, m)
      end
      subroutine in(b, y, mm)
      real b(100)
      real y
      integer mm
      if (y .gt. 100.0) return
      do j = 1, mm
        b(j) = y
      enddo
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("in"));
  ArrayId b = a.arr("in", "b");
  VarId y = a.var("in", "y");
  VarId mm = a.var("in", "mm");
  // y <= 100 (as an integer binding standing in for the real): writes 1..mm.
  EXPECT_EQ(evalList(ps.mod, b, {{y, 50}, {mm, 3}}), points({1, 2, 3}));
  EXPECT_EQ(evalList(ps.mod, b, {{y, 101}, {mm, 3}}), points({}));

  // And the caller maps b -> a.
  const ProcSummary& mainPs = a.pa.analyzer->procSummary(a.proc("main"));
  ArrayId arrA = a.arr("main", "a");
  VarId x = a.var("main", "x");
  VarId m = a.var("main", "m");
  EXPECT_EQ(evalList(mainPs.modAll, arrA, {{x, 50}, {m, 2}}), points({1, 2}));
  EXPECT_EQ(evalList(mainPs.modAll, arrA, {{x, 200}, {m, 2}}), points({}));
}

TEST(SummaryTest, OffsetArrayPassing) {
  Analyzed a = analyzeSource(R"(
      program main
      real a(100)
      call f(a(10))
      end
      subroutine f(b)
      real b(5)
      do j = 1, 5
        b(j) = 0
      enddo
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("main"));
  EXPECT_EQ(evalList(ps.modAll, a.arr("main", "a"), {}), points({10, 11, 12, 13, 14}));
}

TEST(SummaryTest, CommonArraysPassThrough) {
  Analyzed a = analyzeSource(R"(
      program main
      real w(50)
      common /pool/ w
      real x
      call fill
      x = w(3)
      end
      subroutine fill
      real w(50)
      common /pool/ w
      do j = 1, 10
        w(j) = j
      enddo
      end
  )");
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("main"));
  ArrayId w = a.arr("main", "w");
  ElementSet mod = evalList(ps.modAll, w, {});
  EXPECT_EQ(mod.size(), 10u);
  // w(3) is written by fill before the read: not upward exposed.
  EXPECT_EQ(evalList(ps.ueAll, w, {}), points({}));
}

TEST(SummaryTest, NonInterproceduralDegradesToOmega) {
  AnalysisOptions opt;
  opt.interprocedural = false;
  Analyzed a = analyzeSource(R"(
      program main
      real a(100)
      real x
      integer m
      call in(a, x, m)
      end
      subroutine in(b, y, mm)
      real b(100)
      real y
      integer mm
      b(1) = y
      end
  )",
                             opt);
  const ProcSummary& ps = a.pa.analyzer->procSummary(a.proc("main"));
  bool undecided = false;
  evalList(ps.modAll, a.arr("main", "a"), {}, &undecided);
  EXPECT_TRUE(undecided);
}

TEST(SummaryTest, DirectProcSummaryFoldsEachCalleeOnce) {
  // Outside the scheduler procSummary summarizes callees on demand.
  // Without SUM_call a call still kills the scalars its callee may write,
  // which the caller reads from the callee's memoized summary: every
  // procedure of this diamond-shaped call DAG is folded once, as the
  // scheduler folds it, however many call paths reach it.
  constexpr std::string_view kSource = R"(
      program main
      common /g/ s
      integer s
      real x(10)
      call l1a(x)
      call l1b(x)
      end
      subroutine l1a(y)
      real y(10)
      call l2a(y)
      call l2b(y)
      end
      subroutine l1b(y)
      real y(10)
      call l2a(y)
      call l2b(y)
      end
      subroutine l2a(y)
      real y(10)
      call leaf(y)
      call leaf(y)
      end
      subroutine l2b(y)
      real y(10)
      call leaf(y)
      call leaf(y)
      end
      subroutine leaf(y)
      real y(10)
      common /g/ s
      integer s
      do i = 1, 10
        y(i) = 0
      enddo
      s = 1
      end
  )";
  AnalysisOptions opt;
  opt.interprocedural = false;
  Analyzed scheduled = analyzeSource(kSource, opt);

  DiagnosticEngine diags;
  auto p = parseProgram(kSource, diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value()) << diags.str();
  Hsg hsg = buildHsg(*p, diags);
  SummaryAnalyzer direct(*p, *sr, hsg, opt);
  const ProcSummary& ps = direct.procSummary(*p->findProcedure("main"));

  auto names = [](const std::vector<VarId>& vars, const SymbolTable& table) {
    std::vector<std::string> out;
    for (VarId v : vars) out.push_back(table.name(v));
    return out;
  };
  const ProcSummary& expected = scheduled.pa.analyzer->procSummary(scheduled.proc("main"));
  EXPECT_FALSE(ps.modifiedScalars.empty());
  EXPECT_EQ(names(ps.modifiedScalars, sr->symbols),
            names(expected.modifiedScalars, scheduled.pa.sema.symbols));
  EXPECT_EQ(direct.stats().blockSteps, scheduled.pa.analyzer->stats().blockSteps);
}

AnalysisOptions withDE() {
  AnalysisOptions options;
  options.computeDE = true;
  return options;
}

TEST(SummaryTest, DeOffLeavesEveryDeListEmpty) {
  // DE sets are on demand. Off, no path may fill a DE list — including the
  // two that degrade to Ω: a loop whose header reads an array, and a call
  // summarized without interprocedural analysis.
  EXPECT_FALSE(AnalysisOptions{}.computeDE);
  AnalysisOptions opt;
  opt.computeDE = false;
  opt.interprocedural = false;
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, m, n)
      real a(100), b(100)
      integer m(10)
      integer n
      do i = m(1), n
        b(i) = a(i)
        call t(a, i)
      enddo
      do j = 1, n
        call t(b, j)
        a(j) = b(j)
      enddo
      call t(a, n)
      end
      subroutine t(c, k)
      real c(100)
      integer k
      c(k) = c(k) + 1
      end
  )",
                             opt);
  EXPECT_FALSE(a.loop("s", 0).boundsKnown);  // the unanalyzable header
  for (const Procedure& proc : a.pa.program.procedures) {
    SCOPED_TRACE(proc.name);
    const ProcSummary& ps = a.pa.analyzer->procSummary(proc);
    EXPECT_FALSE(ps.ue.empty());
    EXPECT_TRUE(ps.de.empty());
    for (const Stmt* loop : collectDoLoops(proc.body)) {
      SCOPED_TRACE(loop->loc.line);
      const LoopSummary* ls = a.pa.analyzer->loopSummary(loop);
      ASSERT_NE(ls, nullptr);
      EXPECT_FALSE(ls->ue.empty());
      EXPECT_TRUE(ls->deIter.empty());
      EXPECT_TRUE(ls->de.empty());
    }
  }
}

TEST(SummaryTest, DownwardExposedUses) {
  // DE (§3.2.2): a read followed by a same-iteration write of the same
  // element is not downward exposed; a read that is never overwritten is.
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, x, n)
      real a(100), b(100), x
      integer n
      do i = 1, n
        x = a(5) + b(i)
        a(5) = x * 2
      enddo
      end
  )",
                             withDE());
  const LoopSummary& ls = a.loop("s");
  VarId i = ls.bounds.index;
  VarId n = a.var("s", "n");
  ArrayId arr = a.arr("s", "a");
  ArrayId brr = a.arr("s", "b");
  // UE_i(a) = {5} (read before write)...
  EXPECT_EQ(evalList(ls.ueIter, arr, {{i, 3}, {n, 8}}), points({5}));
  // ...but DE_i(a) = {} — the write follows the read.
  EXPECT_EQ(evalList(ls.deIter, arr, {{i, 3}, {n, 8}}), points({}));
  // b(i) is read and never written: downward exposed.
  EXPECT_EQ(evalList(ls.deIter, brr, {{i, 3}, {n, 8}}), points({3}));
}

TEST(SummaryTest, DeBasedAntiTest) {
  // t = a(5) + ...; a(5) = t + i: the UE-based anti test fires (a(5) is read
  // and written by every other iteration), the DE-based one does not — the
  // anti dependence is subsumed by the output dependence, exactly §3.2.2's
  // note.
  Analyzed a = analyzeSource(R"(
      subroutine s(a, n)
      real a(100)
      real t
      integer n
      do i = 1, n
        t = a(5) + a(i + 50)
        a(5) = t + i
      enddo
      end
  )",
                             withDE());
  const LoopSummary& ls = a.loop("s");
  // DE_i = {a(i+50)}: the write kills a(5), and the never-written a(i+50)
  // keeps DE_i non-empty, so the disjointness below is a real query on a.
  ASSERT_FALSE(ls.deIter.empty());
  ConstraintSet cs;
  cs.addExprLE0(ls.bounds.lo - SymExpr::variable(ls.bounds.index));
  cs.addExprLE0(SymExpr::variable(ls.bounds.index) - ls.bounds.up);
  CmpCtx ctx{cs};
  EXPECT_NE(garIntersectionEmpty(ls.ueIter, ls.modAfter, ctx), Truth::True);
  EXPECT_EQ(garIntersectionEmpty(ls.deIter, ls.modAfter, ctx), Truth::True);
}

TEST(SummaryTest, InductionVariableConversion) {
  // §5.2: k advances by 2 per iteration — the analysis converts it to an
  // expression of the loop index instead of giving up.
  Analyzed a = analyzeSource(R"(
      subroutine s(a, n)
      real a(200)
      integer n, k
      k = 10
      do i = 1, n
        a(k) = i
        a(k + 1) = i
        k = k + 2
      enddo
      end
  )");
  const LoopSummary& ls = a.loop("s");
  ASSERT_TRUE(ls.boundsKnown);
  VarId i = ls.bounds.index;
  VarId n = a.var("s", "n");
  VarId k = a.var("s", "k");
  ArrayId arr = a.arr("s", "a");
  // At iteration i (k entered the loop as 10): writes {10+2(i-1), 11+2(i-1)}.
  bool und = false;
  ElementSet got = evalList(ls.modIter, arr, {{i, 3}, {n, 6}, {k, 10}}, &und);
  EXPECT_FALSE(und);
  EXPECT_EQ(got, points({14, 15}));
  // MOD_<i covers the two strides exactly.
  got = evalList(ls.modBefore, arr, {{i, 3}, {n, 6}, {k, 10}}, &und);
  EXPECT_FALSE(und);
  EXPECT_EQ(got, points({10, 11, 12, 13}));
  // Whole-loop MOD is the contiguous block.
  got = evalList(ls.mod, arr, {{n, 4}, {k, 10}}, &und);
  EXPECT_FALSE(und);
  EXPECT_EQ(got.size(), 8u);
}

TEST(SummaryTest, ConditionalIncrementIsNotInduction) {
  Analyzed a = analyzeSource(R"(
      subroutine s(a, n, m)
      real a(200)
      integer n, m, k
      k = 1
      do i = 1, n
        if (i .gt. m) then
          k = k + 2
        endif
        a(k) = i
      enddo
      end
  )");
  const LoopSummary& ls = a.loop("s");
  bool und = false;
  evalList(ls.modIter, a.arr("s", "a"),
           {{ls.bounds.index, 3}, {a.var("s", "n"), 6}, {a.var("s", "m"), 2},
            {a.var("s", "k"), 1}},
           &und);
  EXPECT_TRUE(und);  // must stay conservative
}

TEST(SummaryTest, PrematureExitKeepsInvariantModPrecise) {
  // §5.4: the early exit taints the index-dependent writes of the loop's
  // MOD, but the invariant unconditional write stays exact (any started
  // loop writes it in iteration 1).
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, c, n)
      real a(100), b(100), c(100)
      integer n
      do i = 1, n
        c(7) = 1
        if (b(i) .gt. 0.0) goto 99
        a(i) = b(i)
      enddo
 99   continue
      end
  )");
  const LoopSummary& ls = a.loop("s");
  ASSERT_TRUE(ls.prematureExit);
  VarId n = a.var("s", "n");
  // c(7): exact, guarded only by the loop executing at all.
  bool und = false;
  ElementSet gotC = evalList(ls.mod, a.arr("s", "c"), {{n, 5}}, &und);
  EXPECT_FALSE(und);
  EXPECT_EQ(gotC, points({7}));
  EXPECT_EQ(evalList(ls.mod, a.arr("s", "c"), {{n, 0}}), points({}));
  // a(i): may stop early — must be Δ, never the full range.
  und = false;
  evalList(ls.mod, a.arr("s", "a"), {{n, 5}}, &und);
  EXPECT_TRUE(und);
}

TEST(SummaryTest, PrematureExitModBeforeStaysExact) {
  // Predecessor iterations of an executing iteration ran complete bodies:
  // MOD_{<i} keeps full precision even in an early-exit loop.
  Analyzed a = analyzeSource(R"(
      subroutine s(a, b, n)
      real a(100), b(100)
      integer n
      do i = 1, n
        a(i) = i
        if (b(i) .gt. 0.0) goto 99
      enddo
 99   continue
      end
  )");
  const LoopSummary& ls = a.loop("s");
  ASSERT_TRUE(ls.prematureExit);
  VarId i = ls.bounds.index;
  VarId n = a.var("s", "n");
  bool und = false;
  ElementSet got = evalList(ls.modBefore, a.arr("s", "a"), {{i, 4}, {n, 9}}, &und);
  EXPECT_FALSE(und);
  EXPECT_EQ(got, points({1, 2, 3}));
}

TEST(SummaryTest, Figure5Derivation) {
  // Figure 1(b) / Figure 5: the full derivation, checked semantically.
  Analyzed a = analyzeSource(R"(
      subroutine filer(a, jlow, jup, jmax, p, n)
      real a(200)
      integer jlow, jup, jmax, n
      logical p
      do i = 1, n
        do j = jlow, jup
          a(j) = i
        enddo
        if (.not. p) then
          a(jmax) = i
        endif
        do j = jlow, jup
          a(j) = a(j) + a(jmax)
        enddo
      enddo
      end
  )");
  const LoopSummary& ls = a.loop("filer");  // the I loop
  ArrayId arr = a.arr("filer", "a");
  VarId jlow = a.var("filer", "jlow");
  VarId jup = a.var("filer", "jup");
  VarId jmax = a.var("filer", "jmax");
  VarId p = a.var("filer", "p");
  VarId i = ls.bounds.index;

  // Brute-force oracle for one iteration's MOD_i and UE_i.
  auto oracle = [&](std::int64_t lo, std::int64_t up, std::int64_t mx, bool pv) {
    std::set<std::int64_t> written;
    std::set<std::int64_t> exposed;
    auto use = [&](std::int64_t x) {
      if (!written.count(x)) exposed.insert(x);
    };
    for (std::int64_t j = lo; j <= up; ++j) written.insert(j);
    if (!pv) written.insert(mx);
    for (std::int64_t j = lo; j <= up; ++j) {
      use(j);
      use(mx);
      written.insert(j);
    }
    return std::pair(written, exposed);
  };

  for (std::int64_t lo : {5, 8}) {
    for (std::int64_t up : {4, 9}) {
      for (std::int64_t mx : {3, 6, 9, 12}) {
        for (bool pv : {false, true}) {
          Binding bnd{{jlow, lo}, {jup, up}, {jmax, mx}, {p, pv ? 1 : 0}, {i, 2},
                      {a.var("filer", "n"), 7}};
          auto [wantMod, wantUe] = oracle(lo, up, mx, pv);
          bool und = false;
          ElementSet gotMod = evalList(ls.modIter, arr, bnd, &und);
          ElementSet gotUe = evalList(ls.ueIter, arr, bnd, &und);
          ASSERT_FALSE(und) << "fig5 must stay exact";
          ElementSet wantModSet;
          for (auto x : wantMod) wantModSet.insert({x});
          ElementSet wantUeSet;
          for (auto x : wantUe) wantUeSet.insert({x});
          EXPECT_EQ(gotMod, wantModSet) << lo << " " << up << " " << mx << " " << pv;
          EXPECT_EQ(gotUe, wantUeSet) << lo << " " << up << " " << mx << " " << pv;
        }
      }
    }
  }

  // The paper's punchline: UE_i ∩ MOD_{<i} = ∅, so A is privatizable.
  ConstraintSet cs;
  cs.addExprLE0(ls.bounds.lo - SymExpr::variable(i));
  cs.addExprLE0(SymExpr::variable(i) - ls.bounds.up);
  EXPECT_EQ(garIntersectionEmpty(ls.ueIter, ls.modBefore, CmpCtx{cs}), Truth::True);
}

/// Every summary list of `pa`, named for failure messages: each
/// procedure's MOD/UE/DE sets and each DO loop's per-iteration, window and
/// whole-loop sets.
std::vector<std::pair<std::string, const GarList*>> summaryLists(ProgramAnalysis& pa) {
  std::vector<std::pair<std::string, const GarList*>> out;
  for (const Procedure& proc : pa.program.procedures) {
    const ProcSummary& s = pa.analyzer->procSummary(proc);
    for (const auto& [name, list] :
         {std::pair{"MOD", &s.mod}, {"UE", &s.ue}, {"DE", &s.de}, {"MOD all", &s.modAll},
          {"UE all", &s.ueAll}})
      out.emplace_back(proc.name + " " + name, list);
    for (const Stmt* loop : collectDoLoops(proc.body)) {
      const LoopSummary* ls = pa.analyzer->loopSummary(loop);
      if (!ls) continue;
      const std::string where = proc.name + " DO " + loop->doVar + " (line " +
                                std::to_string(loop->loc.line) + ") ";
      for (const auto& [name, list] :
           {std::pair{"MOD_i", &ls->modIter}, {"UE_i", &ls->ueIter}, {"DE_i", &ls->deIter},
            {"MOD_<i", &ls->modBefore}, {"MOD_>i", &ls->modAfter}, {"MOD", &ls->mod},
            {"UE", &ls->ue}, {"DE", &ls->de}, {"UE_after", &ls->ueAfter}})
        out.emplace_back(where + name, list);
    }
  }
  return out;
}

// simplifyGarList's first pass keeps a member instead of re-making it when
// its guard is already simplified and already holds what Gar::make would
// conjoin (gar_simplifier.cpp). On every GAR of every procedure and loop
// summary of the 15 corpus programs and of 50 random kernels, under each
// ablation switch, with and without the quantified extension:
//   * make is idempotent on what it built;
//   * a member the first pass keeps is one make returns unchanged, so
//     simplifying a list gives what re-making every member first gives;
//   * with the GAR simplifier on, simplifying a simplified list once more
//     changes nothing, and on the corpus it re-makes no member. (A random
//     kernel's guard can imply its region's validity, which simplification
//     then drops; such a member is re-made, to the same GAR.)
TEST(SummaryTest, SimplifierKeepsOnlyMembersMakeReturnsUnchanged) {
  std::vector<std::string> sources{fig1aSource(), fig1bSource(), fig1cSource()};
  for (const CorpusLoop& kernel : perfectCorpus()) sources.push_back(kernel.source);
  ASSERT_EQ(sources.size(), 15u);
  ProgramGen gen(2654435761u + 17u);  // FuzzTest's first seed
  for (int k = 0; k < 50; ++k) sources.push_back(gen.generate());

  std::vector<std::pair<std::string, AnalysisOptions>> variants;
  for (bool quantified : {false, true}) {
    AnalysisOptions base;
    base.computeDE = true;  // DE lists are checked too
    base.quantified = quantified;
    const std::string q = quantified ? " +quantified" : "";
    variants.emplace_back("default" + q, base);
    AnalysisOptions o = base;
    o.symbolicAnalysis = false;
    variants.emplace_back("no symbolic" + q, o);
    o = base;
    o.ifConditions = false;
    variants.emplace_back("no IF conditions" + q, o);
    o = base;
    o.interprocedural = false;
    variants.emplace_back("no interprocedural" + q, o);
    o = base;
    o.garSimplifier = false;
    variants.emplace_back("no GAR simplifier" + q, o);
  }

  std::size_t gars = 0;
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const std::string& src = sources[k];
    const bool corpus = k < 15;
    for (const auto& [variant, options] : variants) {
      Analyzed a = analyzeSource(src, options);
      ASSERT_TRUE(a.pa.ok) << variant << "\n" << src;
      const PsiDims psi = a.pa.analyzer->psi();
      const CmpCtx ctx(ConstraintSet{}, psi);
      const SymbolTable& symbols = a.pa.sema.symbols;
      const ArrayTable& arrays = a.pa.sema.arrays;
      // Would the first pass keep `g` as it is?
      auto kept = [&](const Gar& g) {
        Pred guard = g.guard();
        guard.simplify();
        return guard == g.guard() && Gar::conjoined(guard, g.region(), psi) == guard;
      };
      for (const auto& [where, list] : summaryLists(a.pa)) {
        const std::string context = variant + ", " + where + ": ";
        for (const Gar& g : *list) {
          ++gars;
          const Gar made = Gar::make(g.guard(), g.region(), psi);
          ASSERT_TRUE(Gar::make(made.guard(), made.region(), psi) == made)
              << context << made.str(symbols, arrays) << "\n" << src;
          if (kept(g)) {
            ASSERT_TRUE(made == g) << context << g.str(symbols, arrays) << " re-made is "
                                   << made.str(symbols, arrays) << "\n" << src;
          }
        }
        GarList once = *list;
        simplifyGarList(once, ctx, &arrays);
        GarList remade;
        for (const Gar& g : *list) {
          Pred guard = g.guard();
          guard.simplify();
          if (!guard.isFalse()) remade.addRaw(Gar::make(std::move(guard), g.region(), psi));
        }
        simplifyGarList(remade, ctx, &arrays);
        ASSERT_TRUE(once.gars() == remade.gars())
            << context << once.str(symbols, arrays) << " simplified after re-making is "
            << remade.str(symbols, arrays) << "\n" << src;
        // With the simplifier off the analysis never simplifies these lists,
        // and a long one can need more than pass 2's 8 merge rounds.
        if (!options.garSimplifier) continue;
        if (corpus) {
          for (const Gar& g : once) ASSERT_TRUE(kept(g)) << context << g.str(symbols, arrays);
        }
        GarList twice = once;
        simplifyGarList(twice, ctx, &arrays);
        ASSERT_TRUE(twice.gars() == once.gars())
            << context << once.str(symbols, arrays) << " simplified again is "
            << twice.str(symbols, arrays) << "\n" << src;
      }
    }
  }
  EXPECT_GT(gars, 10000u);
}

}  // namespace
}  // namespace panorama
