// Cross-kernel integration: one program combining the corpus' canonical
// patterns (ARC2D-style filter, TRFD-style transform, OCEAN-style guarded
// pipeline, MDG-style counter idiom) in a single compilation unit. Checks
// that the patterns keep their classifications when they share a symbol
// universe, that the whole thing executes, and that the combined
// privatization survives the scrambled witness.
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

constexpr const char* kMiniPerfect = R"(
      program mini
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      integer jlow, jup, kup, nrs, mrs, n, m
      jlow = 2
      jup = 40
      kup = 24
      nrs = 20
      mrs = 16
      n = 22
      m = 14
      call filter(jlow, jup, kup)
      call transf(nrs, mrs)
      call pipeln(n, m)
      end

      subroutine filter(jlow, jup, kup)
      integer jlow, jup, kup
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      real work(60)
      do 15 k = 1, kup
        do j = jlow, jup
          work(j) = field(j, k) * 0.25
        enddo
        do j = jlow, jup
          field(j, k) = work(j) + field(j, k)
        enddo
 15   continue
      end

      subroutine transf(nrs, mrs)
      integer nrs, mrs
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      real xrsiq(60)
      do 100 i = 1, nrs
        do j = 1, mrs
          xrsiq(j) = grid(i, j) * 2.0
        enddo
        do j = 1, mrs
          grid(i, j) = xrsiq(j) + 1.0
        enddo
 100  continue
      end

      subroutine pipeln(n, m)
      integer n, m
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      real cwork(60)
      real sc
      do 270 i = 1, n
        sc = i * 1.0
        call fwrite(cwork, sc, m)
        call fread(cwork, sc, m, i)
 270  continue
      end

      subroutine fwrite(b, sc, mm)
      real b(60)
      real sc
      integer mm
      if (sc .gt. 50.0) return
      do j = 1, mm
        b(j) = sc + j
      enddo
      end

      subroutine fread(b, sc, mm, ii)
      real b(60)
      real sc
      integer mm, ii
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      if (sc .gt. 50.0) return
      do j = 1, mm
        grid(ii, j) = grid(ii, j) + b(j)
      enddo
      end
)";

ProgramAnalysis analyzeMiniPerfect() {
  DiagnosticEngine diags;
  auto p = parseProgram(kMiniPerfect, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(p ? std::move(*p) : Program{}, {}, pool);
  EXPECT_TRUE(pa.ok) << pa.error;
  return pa;
}

/// The analysis of `routine`'s first outermost loop (nullptr if absent).
const LoopAnalysis* outerLoopAnalysis(const ProgramAnalysis& pa, const char* routine) {
  const Stmt* loop = findOuterLoop(pa.program, routine, 0);
  for (const LoopAnalysis& la : pa.loops)
    if (loop && la.loop == loop) return &la;
  return nullptr;
}

TEST(MiniPerfectTest, AllPatternsClassifyTogether) {
  ProgramAnalysis pa = analyzeMiniPerfect();
  ASSERT_TRUE(pa.ok);

  struct Want {
    const char* routine;
    const char* array;
  };
  const Want wants[] = {
      {"filter", "work"}, {"transf", "xrsiq"}, {"pipeln", "cwork"}};
  for (const Want& w : wants) {
    const LoopAnalysis* found = outerLoopAnalysis(pa, w.routine);
    ASSERT_NE(found, nullptr) << w.routine;
    const LoopAnalysis& la = *found;
    bool priv = false;
    for (const ArrayPrivatization& ap : la.arrays)
      if (ap.name == w.array) priv = ap.privatizable;
    EXPECT_TRUE(priv) << w.routine << "/" << w.array << "\n"
                      << formatLoopAnalysis(la);
    EXPECT_EQ(la.classification, LoopClass::ParallelAfterPrivatization)
        << w.routine << "\n"
        << formatLoopAnalysis(la);
  }
}

TEST(MiniPerfectTest, ExecutesAndWitnesses) {
  ProgramAnalysis pa = analyzeMiniPerfect();
  ASSERT_TRUE(pa.ok);

  Interpreter serial(pa.program, pa.sema);
  auto res = serial.run({});
  ASSERT_TRUE(res.ok) << res.error;

  // Scramble each of the three evaluated loops (independently) with its
  // privatized arrays; live-out memory must match.
  for (const char* routine : {"filter", "transf", "pipeln"}) {
    const LoopAnalysis* la = outerLoopAnalysis(pa, routine);
    ASSERT_NE(la, nullptr) << routine;
    std::vector<ArrayId> privatized;
    std::set<ArrayId> dead;
    for (const ArrayPrivatization& ap : la->arrays) {
      if (!ap.privatizable) continue;
      privatized.push_back(ap.array);
      if (!ap.needsCopyOut) dead.insert(ap.array);
    }
    ASSERT_FALSE(privatized.empty()) << routine;
    Interpreter scrambled(pa.program, pa.sema);
    Interpreter::Config cfg;
    cfg.privatizeLoop = la->loop;
    cfg.privatizedArrays = privatized;
    cfg.scrambleSeed = 99;
    auto sres = scrambled.run(cfg);
    ASSERT_TRUE(sres.ok) << routine << ": " << sres.error;
    for (const auto& [id, store] : serial.arrays()) {
      if (dead.count(id)) continue;
      auto it = scrambled.arrays().find(id);
      ASSERT_NE(it, scrambled.arrays().end());
      EXPECT_EQ(it->second, store) << routine << "/" << pa.sema.arrays.name(id);
    }
  }
}

TEST(MiniPerfectTest, ProcSummaryDeThroughCalls) {
  // DE composes across the call: `b` is read by `fread` and never written
  // there — downward exposed at the callee's exit (grid, by contrast, is
  // read-then-rewritten per element, so it is NOT downward exposed).
  DiagnosticEngine diags;
  auto p = parseProgram(kMiniPerfect, diags);
  ASSERT_TRUE(p.has_value());
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Hsg hsg = buildHsg(*p, diags);
  AnalysisOptions options;
  options.computeDE = true;
  SummaryAnalyzer analyzer(*p, *sr, hsg, options);
  const ProcSummary& ps = analyzer.procSummary(*p->findProcedure("fread"));
  ArrayId b = *sr->procs.at("fread").arrayId("b");
  ArrayId grid = *sr->procs.at("fread").arrayId("grid");
  EXPECT_FALSE(ps.de.forArray(b).empty());
  EXPECT_TRUE(ps.de.forArray(grid).empty());
}

}  // namespace
}  // namespace panorama
