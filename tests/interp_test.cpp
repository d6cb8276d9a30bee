// Tests for the concrete interpreter and the machine model, ending with the
// key soundness property: the analyzer's symbolic per-iteration summaries,
// evaluated under the interpreter's traced bindings, must match the traced
// ground truth exactly when decidable and over-approximate otherwise.
#include <gtest/gtest.h>

#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"
#include "panorama/machine/machine_model.h"
#include "panorama/summary/summary.h"

namespace panorama {
namespace {

struct World {
  Program program;
  SemaResult sema;
};

World load(std::string_view src) {
  World w;
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  w.program = std::move(*p);
  auto sr = analyze(w.program, diags);
  EXPECT_TRUE(sr.has_value()) << diags.str();
  w.sema = std::move(*sr);
  return w;
}

TEST(InterpTest, ArithmeticAndControlFlow) {
  World w = load(R"(
      program p
      integer s
      real a(10)
      s = 0
      do i = 1, 10
        if (mod(i, 2) .eq. 0) then
          a(i) = i * 2
        else
          a(i) = -i
        endif
        s = s + i
      enddo
      end
  )");
  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  VarId s = *w.sema.procs.at("p").scalarId("s");
  EXPECT_EQ(interp.scalars().at(s).i, 55);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(interp.arrays().at(a).at({4}), 8.0);
  EXPECT_EQ(interp.arrays().at(a).at({5}), -5.0);
}

TEST(InterpTest, GotoAndLabeledDo) {
  World w = load(R"(
      program p
      integer k
      real a(20)
      do 1 k = 2, 5
        if (k .eq. 4) goto 1
        a(k) = k
 1    continue
      end
  )");
  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(interp.arrays().at(a).count({4}), 0u);
  EXPECT_EQ(interp.arrays().at(a).at({5}), 5.0);
}

TEST(InterpTest, PrematureLoopExit) {
  World w = load(R"(
      program p
      real a(100)
      do i = 1, 100
        if (i .gt. 3) goto 99
        a(i) = i
      enddo
 99   continue
      end
  )");
  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(interp.arrays().at(a).size(), 3u);
}

TEST(InterpTest, CallByReference) {
  World w = load(R"(
      program p
      real a(10)
      integer n
      n = 4
      call fill(a, n)
      call bump(n)
      end
      subroutine fill(b, m)
      real b(10)
      integer m
      do j = 1, m
        b(j) = j * 10
      enddo
      end
      subroutine bump(k)
      integer k
      k = k + 1
      end
  )");
  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(interp.arrays().at(a).at({4}), 40.0);
  EXPECT_EQ(interp.arrays().at(a).count({5}), 0u);
  VarId n = *w.sema.procs.at("p").scalarId("n");
  EXPECT_EQ(interp.scalars().at(n).i, 5);
}

TEST(InterpTest, OffsetArrayActual) {
  World w = load(R"(
      program p
      real a(100)
      call f(a(10))
      end
      subroutine f(b)
      real b(5)
      do j = 1, 5
        b(j) = j
      enddo
      end
  )");
  Interpreter interp(w.program, w.sema);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(interp.arrays().at(a).at({10}), 1.0);
  EXPECT_EQ(interp.arrays().at(a).at({14}), 5.0);
}

TEST(InterpTest, ScalarInputsAndStepLimit) {
  World w = load(R"(
      program p
      integer n
      real a(1000)
      do i = 1, n
        a(i) = i
      enddo
      end
  )");
  Interpreter interp(w.program, w.sema);
  Interpreter::Config cfg;
  cfg.scalarInputs["p::n"] = InterpValue::ofInt(7);
  auto res = interp.run(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  EXPECT_EQ(interp.arrays().at(a).size(), 7u);

  cfg.scalarInputs["p::n"] = InterpValue::ofInt(1000);
  cfg.maxSteps = 50;
  res = interp.run(cfg);
  EXPECT_FALSE(res.ok);
}

TEST(InterpTest, TraceCapturesPerIterationSets) {
  World w = load(R"(
      program p
      real a(100), b(100)
      integer n
      n = 5
      do i = 1, n
        a(i) = b(i) + a(i - 1)
      enddo
      end
  )");
  const Stmt* loop = w.program.procedures[0].body[1].get();
  ASSERT_EQ(loop->kind, Stmt::Kind::Do);
  Interpreter interp(w.program, w.sema);
  Interpreter::Config cfg;
  cfg.traceLoop = loop;
  auto res = interp.run(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  const LoopTrace& t = interp.trace();
  ASSERT_EQ(t.iterEntry.size(), 5u);
  ArrayId a = *w.sema.procs.at("p").arrayId("a");
  ArrayId b = *w.sema.procs.at("p").arrayId("b");
  EXPECT_EQ(t.modPerIter[2].at(a), (ElementSet{{3}}));
  EXPECT_EQ(t.uePerIter[2].at(a), (ElementSet{{2}}));
  EXPECT_EQ(t.uePerIter[2].at(b), (ElementSet{{3}}));
  // Whole-loop UE of a: only a(0) — later reads hit earlier writes.
  EXPECT_EQ(t.ueWhole.at(a), (ElementSet{{0}}));
  EXPECT_EQ(t.iterOps.size(), 5u);
  EXPECT_GT(t.iterOps[0], 0u);
}

TEST(MachineModelTest, SpeedupShapes) {
  std::vector<std::uint64_t> uniform(64, 1000);
  MachineConfig cfg;
  cfg.processors = 8;
  cfg.forkJoinOverhead = 0;
  auto est = estimateSpeedup(uniform, cfg);
  EXPECT_NEAR(est.speedup, 8.0, 0.01);

  cfg.vectorFactor = 2.0;
  est = estimateSpeedup(uniform, cfg);
  EXPECT_NEAR(est.speedup, 16.0, 0.01);

  cfg.vectorFactor = 1.0;
  cfg.forkJoinOverhead = 8000;  // as big as a chunk: halves the speedup
  est = estimateSpeedup(uniform, cfg);
  EXPECT_NEAR(est.speedup, 4.0, 0.01);

  // Fewer iterations than processors.
  std::vector<std::uint64_t> three(3, 900);
  cfg.forkJoinOverhead = 0;
  est = estimateSpeedup(three, cfg);
  EXPECT_NEAR(est.speedup, 3.0, 0.01);
}

// ---------------------------------------------------------------------------
// The validation oracle: symbolic summaries vs interpreted ground truth.
// ---------------------------------------------------------------------------

void validateLoopAgainstTrace(std::string_view src, const char* mainName,
                              std::map<std::string, InterpValue> inputs = {}) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  AnalysisOptions options;
  options.computeDE = true;  // DE_i is checked below
  ProgramAnalysis w = analyzeProgramUnit(std::move(*p), options, pool);
  ASSERT_TRUE(w.ok) << w.error;
  // Find the first outermost loop of the main program.
  const Procedure* mainProc = w.program.findProcedure(mainName);
  ASSERT_NE(mainProc, nullptr);
  const Stmt* loop = nullptr;
  for (const StmtPtr& s : mainProc->body)
    if (s->kind == Stmt::Kind::Do) {
      loop = s.get();
      break;
    }
  ASSERT_NE(loop, nullptr);
  const LoopSummary* ls = w.analyzer->loopSummary(loop);
  ASSERT_NE(ls, nullptr);

  Interpreter interp(w.program, w.sema);
  Interpreter::Config cfg;
  cfg.traceLoop = loop;
  cfg.scalarInputs = std::move(inputs);
  auto res = interp.run(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  const LoopTrace& t = interp.trace();
  ASSERT_FALSE(t.iterEntry.empty());

  std::map<ArrayId, ElementSet> modSoFar;
  for (std::size_t it = 0; it < t.iterEntry.size(); ++it) {
    // Summaries are loop-entry-relative for scalars plus the iteration
    // index (loop-variant scalars are either induction-converted into the
    // index or poisoned).
    Binding bnd = t.loopEntry;
    auto idx = t.iterEntry[it].find(ls->bounds.index);
    ASSERT_NE(idx, t.iterEntry[it].end());
    bnd[ls->bounds.index] = idx->second;
    // Every array the analyzer talks about:
    std::vector<ArrayId> arrays = ls->modIter.arrays();
    for (ArrayId a : ls->ueIter.arrays()) arrays.push_back(a);
    for (ArrayId array : arrays) {
      auto checkSet = [&](const GarList& symbolic, const ElementSet& truth, const char* what) {
        bool undecided = false;
        ElementSet got;
        for (const Gar& g : symbolic.gars()) {
          if (g.array() != array) continue;
          auto e = g.enumerate(bnd);
          if (!e) {
            undecided = true;
            continue;
          }
          got.insert(e->begin(), e->end());
        }
        if (undecided) {
          // Over-approximation only: nothing true may be missing entirely.
          for (const auto& el : truth)
            EXPECT_TRUE(got.count(el) || undecided) << what;
        } else {
          EXPECT_EQ(got, truth) << what << " mismatch at iteration " << it;
        }
      };
      auto truthOf = [&](const std::vector<std::map<ArrayId, ElementSet>>& v) {
        auto found = v[it].find(array);
        return found == v[it].end() ? ElementSet{} : found->second;
      };
      checkSet(ls->modIter, truthOf(t.modPerIter), "MOD_i");
      checkSet(ls->ueIter, truthOf(t.uePerIter), "UE_i");
      checkSet(ls->deIter, truthOf(t.dePerIter), "DE_i");
      auto before = modSoFar.find(array);
      checkSet(ls->modBefore, before == modSoFar.end() ? ElementSet{} : before->second,
               "MOD_<i");
    }
    for (const auto& [array, elems] : t.modPerIter[it])
      modSoFar[array].insert(elems.begin(), elems.end());
  }
}

TEST(OracleTest, SimpleSweep) {
  validateLoopAgainstTrace(R"(
      program p
      real a(100), b(100)
      integer n
      n = 8
      do i = 1, n
        a(i) = b(i + 1) * 2
      enddo
      end
  )",
                           "p");
}

TEST(OracleTest, WorkArray) {
  validateLoopAgainstTrace(R"(
      program p
      real a(100), c(100)
      integer n, m
      n = 6
      m = 4
      do i = 1, n
        do j = 1, m
          a(j) = i + j
        enddo
        do j = 1, m
          c(i) = c(i) + a(j)
        enddo
      enddo
      end
  )",
                           "p");
}

TEST(OracleTest, GuardedWrite) {
  validateLoopAgainstTrace(R"(
      program p
      real a(100)
      integer n, k
      n = 9
      k = 5
      do i = 1, n
        if (i .le. k) then
          a(i) = i
        endif
        a(i + 20) = a(i) + 1
      enddo
      end
  )",
                           "p");
}

TEST(OracleTest, InterproceduralGuarded) {
  validateLoopAgainstTrace(R"(
      program p
      real a(100), c(100)
      integer n, m
      real x
      n = 7
      m = 5
      do i = 1, n
        x = i * 1.0
        call inp(a, x, m)
        call outp(a, c, x, m)
      enddo
      end
      subroutine inp(b, x, mm)
      real b(100)
      real x
      integer mm
      if (x .gt. 4.0) return
      do j = 1, mm
        b(j) = x
      enddo
      end
      subroutine outp(b, c, x, mm)
      real b(100), c(100)
      real x
      integer mm
      if (x .gt. 4.0) return
      do j = 1, mm
        c(j) = b(j) * 2.0
      enddo
      end
  )",
                           "p");
}

TEST(OracleTest, InductionVariable) {
  validateLoopAgainstTrace(R"(
      program p
      real a(300)
      integer n, k
      n = 7
      k = 5
      do i = 1, n
        a(k) = i
        a(k + 2) = a(k) * 2
        k = k + 3
      enddo
      end
  )",
                           "p");
}

TEST(OracleTest, SteppedLoop) {
  validateLoopAgainstTrace(R"(
      program p
      real a(100)
      integer n
      n = 17
      do i = 1, n, 3
        a(i) = i
        a(i + 1) = a(i)
      enddo
      end
  )",
                           "p");
}

}  // namespace
}  // namespace panorama
