// Deeper interprocedural coverage: lower-bound shifts, assumed-size
// formals, multi-level call chains with offsets, symbolic element-offset
// actuals, and by-reference scalar effects — each checked against the
// interpreter where execution is possible.
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

using ElementSet = std::set<std::vector<std::int64_t>>;

ProgramAnalysis load(std::string_view src, AnalysisOptions options = {}) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  ProgramAnalysis w = analyzeProgramUnit(p ? std::move(*p) : Program{}, options, pool);
  EXPECT_TRUE(w.ok) << w.error;
  return w;
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

TEST(InterprocTest, LowerBoundShiftInMapping) {
  // Formal declared b(0:49), actual a(1:100): formal index f maps to
  // a(f + 1).
  ProgramAnalysis w = load(R"(
      program p
      real a(100)
      call f(a)
      end
      subroutine f(b)
      real b(0:49)
      do j = 0, 4
        b(j) = j
      enddo
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(w.program.procedures[0]);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(evalList(ps.modAll, a, {}), points({1, 2, 3, 4, 5}));

  // The interpreter agrees.
  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(interp.arrays().at(a).size(), 5u);
  EXPECT_TRUE(interp.arrays().at(a).count({1}));
  EXPECT_TRUE(interp.arrays().at(a).count({5}));
}

TEST(InterprocTest, AssumedSizeFormal) {
  // b(*): the declared shape is open-ended but the accessed region is fully
  // determined by the loop.
  ProgramAnalysis w = load(R"(
      program p
      real a(100)
      integer m
      m = 6
      call f(a, m)
      end
      subroutine f(b, mm)
      real b(*)
      integer mm
      do j = 1, mm
        b(j) = j * 2
      enddo
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(w.program.procedures[0]);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  // `m = 6` folded on the fly: the summary is already concrete.
  EXPECT_EQ(evalList(ps.modAll, a, {}), points({1, 2, 3, 4, 5, 6}));
}

TEST(InterprocTest, TwoLevelOffsetChain) {
  // a(20) passed down two levels with a further offset at the second call:
  // the final writes land at a(20+2-1 + j - 1) = a(21 + j - 1).
  ProgramAnalysis w = load(R"(
      program p
      real a(100)
      call f(a(20))
      end
      subroutine f(b)
      real b(30)
      call g(b(2))
      end
      subroutine g(c)
      real c(10)
      do j = 1, 3
        c(j) = j
      enddo
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(w.program.procedures[0]);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  bool und = false;
  ElementSet got = evalList(ps.modAll, a, {}, &und);
  EXPECT_FALSE(und);
  EXPECT_EQ(got, points({21, 22, 23}));

  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  ElementSet truth;
  for (const auto& [idx, v] : interp.arrays().at(a)) truth.insert(idx);
  EXPECT_EQ(truth, got);
}

TEST(InterprocTest, SymbolicElementOffset) {
  // CALL f(a(k)) with symbolic k: regions shift by k - 1.
  ProgramAnalysis w = load(R"(
      subroutine top(a, k)
      real a(200)
      integer k
      call f(a(k))
      end
      subroutine f(b)
      real b(10)
      do j = 1, 4
        b(j) = j
      enddo
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(*w.program.findProcedure("top"));
  ArrayId a = *w.sema.procs.at("top").arrayId("a");
  VarId k = *w.sema.procs.at("top").scalarId("k");
  EXPECT_EQ(evalList(ps.mod, a, {{k, 50}}), points({50, 51, 52, 53}));
}

TEST(InterprocTest, ByRefScalarWriteTaintsElement) {
  // CALL f(a(7), ...) where f writes its scalar formal: the element becomes
  // a (tainted) write — present in MOD, never able to kill.
  ProgramAnalysis w = load(R"(
      subroutine top(a, x)
      real a(100), x
      call f(a(7))
      x = a(7)
      end
      subroutine f(s)
      real s
      s = 3.25
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(*w.program.findProcedure("top"));
  ArrayId a = *w.sema.procs.at("top").arrayId("a");
  EXPECT_FALSE(ps.mod.forArray(a).empty());
  // The kill must NOT have fired: a(7) stays (conservatively) exposed or
  // the write piece is inexact.
  bool anyExactKillCapable = false;
  GarList mods = ps.mod.forArray(a);
  for (const Gar& g : mods.gars()) anyExactKillCapable |= g.isExact();
  EXPECT_FALSE(anyExactKillCapable);
}

TEST(InterprocTest, SummaryThroughSharedCalleeTwoSites) {
  // One callee, two call sites with different actuals — the memoized
  // summary must map independently at each site.
  ProgramAnalysis w = load(R"(
      program p
      real a(100), b(100)
      integer m
      m = 4
      call fill(a, m)
      call fill(b(10), m)
      end
      subroutine fill(v, mm)
      real v(50)
      integer mm
      do j = 1, mm
        v(j) = j
      enddo
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(w.program.procedures[0]);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  ArrayId b = *w.sema.procs.at("p").arrayId("b");
  VarId m = *w.sema.procs.at("p").scalarId("m");
  EXPECT_EQ(evalList(ps.modAll, a, {{m, 4}}), points({1, 2, 3, 4}));
  EXPECT_EQ(evalList(ps.modAll, b, {{m, 4}}), points({10, 11, 12, 13}));
}

TEST(InterprocTest, RankMismatchDegradesToOmega) {
  // Passing a 2-D actual to a 1-D formal (linearized reshape): Ω on the
  // actual, never a wrong region.
  ProgramAnalysis w = load(R"(
      program p
      real a(10, 10)
      call f(a)
      end
      subroutine f(b)
      real b(100)
      b(5) = 1
      end
  )");
  const ProcSummary& ps = w.analyzer->procSummary(w.program.procedures[0]);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  GarList mods = ps.modAll.forArray(a);
  ASSERT_FALSE(mods.empty());
  for (const Gar& g : mods.gars()) EXPECT_FALSE(g.isExact());
}

TEST(InterprocTest, GuardedCalleeComposesThreeLevels) {
  // The Figure 1(c) implication surviving an extra call level.
  ProgramAnalysis w = load(R"(
      subroutine top(c, n, m)
      real c(100)
      real a(100)
      integer n, m
      real x
      do i = 1, n
        x = i * 1.0
        call mid(a, x, m)
        call rd(a, c, x, m)
      enddo
      end
      subroutine mid(b, x, mm)
      real b(100)
      real x
      integer mm
      call wr(b, x, mm)
      end
      subroutine wr(b, x, mm)
      real b(100)
      real x
      integer mm
      if (x .gt. 40.0) return
      do j = 1, mm
        b(j) = x
      enddo
      end
      subroutine rd(b, c, x, mm)
      real b(100), c(100)
      real x
      integer mm
      if (x .gt. 40.0) return
      do j = 1, mm
        c(j) = b(j)
      enddo
      end
  )");
  LoopParallelizer lp(*w.analyzer);
  const Procedure* top = w.program.findProcedure("top");
  const Stmt* loop = top->body[0].get();
  LoopAnalysis la = lp.analyzeLoop(*loop, *top);
  bool privatizable = false;
  for (const ArrayPrivatization& ap : la.arrays)
    if (ap.name == "a") privatizable = ap.privatizable;
  EXPECT_TRUE(privatizable) << formatLoopAnalysis(la);
}

}  // namespace
}  // namespace panorama
