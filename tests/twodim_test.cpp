// Two-dimensional region coverage: 2-D scratch arrays (the real ARC2D WORK
// is 2-D), column sweeps, mixed-dimension expansion, and 2-D privatization
// semantics — each validated against the interpreter.
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

using ElementSet = std::set<std::vector<std::int64_t>>;

ProgramAnalysis load(std::string_view src) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  ProgramAnalysis w = analyzeProgramUnit(p ? std::move(*p) : Program{}, AnalysisOptions{}, pool);
  EXPECT_TRUE(w.ok) << w.error;
  return w;
}

const Stmt* firstLoop(const Procedure& proc) {
  for (const StmtPtr& s : proc.body)
    if (s->kind == Stmt::Kind::Do) return s.get();
  return nullptr;
}

TEST(TwoDimTest, TwoDimensionalWorkArrayPrivatizes) {
  // work(j, 1..2): a 2-D scratch rewritten per outer iteration — the real
  // ARC2D shape.
  ProgramAnalysis w = load(R"(
      subroutine stepf(q, s, jlow, jup, kup)
      integer jlow, jup, kup
      real q(60, 60), s(60, 60)
      real work(60, 2)
      do 300 k = 1, kup
        do j = jlow, jup
          work(j, 1) = q(j, k) * 0.25
          work(j, 2) = q(j, k) * 0.5
        enddo
        do j = jlow, jup
          s(j, k) = work(j, 1) + work(j, 2)
        enddo
 300  continue
      end
  )");
  LoopParallelizer lp(*w.analyzer);
  const Procedure& proc = *w.program.findProcedure("stepf");
  LoopAnalysis la = lp.analyzeLoop(*firstLoop(proc), proc);
  bool priv = false;
  for (const ArrayPrivatization& ap : la.arrays)
    if (ap.name == "work") priv = ap.privatizable;
  EXPECT_TRUE(priv) << formatLoopAnalysis(la);
  EXPECT_EQ(la.classification, LoopClass::ParallelAfterPrivatization);
}

TEST(TwoDimTest, ColumnSweepSummaries) {
  // MOD of the whole nest is the full rectangle; the outer loop's MOD_i is
  // one column.
  ProgramAnalysis w = load(R"(
      subroutine s(q, n, m)
      integer n, m
      real q(60, 60)
      do k = 1, n
        do j = 1, m
          q(j, k) = j + k
        enddo
      enddo
      end
  )");
  const Procedure& proc = *w.program.findProcedure("s");
  const LoopSummary* ls = w.analyzer->loopSummary(firstLoop(proc));
  ASSERT_NE(ls, nullptr);
  VarId n = *w.sema.procs.at("s").scalarId("n");
  VarId m = *w.sema.procs.at("s").scalarId("m");
  VarId k = ls->bounds.index;
  ArrayId q = *w.sema.procs.at("s").arrayId("q");

  auto count = [&](const GarList& list, Binding b) {
    auto e = list.enumerate(q, b);
    EXPECT_TRUE(e.has_value());
    return e ? e->size() : 0u;
  };
  EXPECT_EQ(count(ls->modIter, {{k, 3}, {n, 5}, {m, 4}}), 4u);       // one column
  EXPECT_EQ(count(ls->modBefore, {{k, 3}, {n, 5}, {m, 4}}), 8u);     // two columns
  EXPECT_EQ(count(ls->mod, {{n, 5}, {m, 4}}), 20u);                  // the rectangle
}

TEST(TwoDimTest, RowVsColumnDisjointness) {
  // Writing row i while reading row i-1: carried flow dependence through
  // dimension 2 must be detected; through dimension 1 it must not.
  ProgramAnalysis w = load(R"(
      subroutine carried(q, n, m)
      integer n, m
      real q(60, 60)
      do k = 2, n
        do j = 1, m
          q(j, k) = q(j, k - 1) + 1
        enddo
      enddo
      end
      subroutine independent(q, n, m)
      integer n, m
      real q(60, 60)
      do k = 2, n
        do j = 1, m
          q(j, k) = q(j, k) + 1
        enddo
      enddo
      end
  )");
  LoopParallelizer lp(*w.analyzer);
  const Procedure& c = *w.program.findProcedure("carried");
  const Procedure& ind = *w.program.findProcedure("independent");
  EXPECT_EQ(lp.analyzeLoop(*firstLoop(c), c).classification, LoopClass::Serial);
  EXPECT_EQ(lp.analyzeLoop(*firstLoop(ind), ind).classification, LoopClass::Parallel);
}

TEST(TwoDimTest, OracleValidatesTwoDimSets) {
  const char* src = R"(
      program p
      real q(60, 60)
      real work(60)
      integer n, m
      n = 6
      m = 5
      do k = 1, n
        do j = 1, m
          work(j) = q(j, k) + k
        enddo
        do j = 1, m
          q(j, k + 1) = work(j)
        enddo
      enddo
      end
  )";
  ProgramAnalysis w = load(src);
  const Procedure& proc = w.program.procedures[0];
  const Stmt* loop = nullptr;
  for (const StmtPtr& s : proc.body)
    if (s->kind == Stmt::Kind::Do) loop = s.get();
  const LoopSummary* ls = w.analyzer->loopSummary(loop);
  ASSERT_NE(ls, nullptr);

  Interpreter interp(w.program, w.sema);
  Interpreter::Config cfg;
  cfg.traceLoop = loop;
  auto res = interp.run(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  const LoopTrace& t = interp.trace();

  ArrayId q = *w.sema.procs.at("p").arrayId("q");
  for (std::size_t it = 0; it < t.iterEntry.size(); ++it) {
    Binding bnd = t.loopEntry;
    bnd[ls->bounds.index] = t.iterEntry[it].at(ls->bounds.index);
    auto got = ls->modIter.enumerate(q, bnd);
    ASSERT_TRUE(got.has_value());
    auto truth = t.modPerIter[it].find(q);
    EXPECT_EQ(*got, truth == t.modPerIter[it].end() ? ElementSet{} : truth->second)
        << "iteration " << it;
    auto gotUe = ls->ueIter.enumerate(q, bnd);
    ASSERT_TRUE(gotUe.has_value());
    auto ueTruth = t.uePerIter[it].find(q);
    EXPECT_EQ(*gotUe, ueTruth == t.uePerIter[it].end() ? ElementSet{} : ueTruth->second)
        << "iteration " << it;
  }
}

}  // namespace
}  // namespace panorama
