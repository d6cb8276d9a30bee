// Integration tests for the application layer (§3.2): array privatization
// and loop parallelization, including the paper's three motivating cases
// (Figure 1) and the T1/T2/T3 ablation behaviour.
#include <gtest/gtest.h>

#include <optional>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"

namespace panorama {
namespace {

struct AnalysisRun {
  ProgramAnalysis pa;

  /// The analysis of the `index`-th outermost loop of `procName`.
  const LoopAnalysis& loop(std::string_view procName, std::size_t index = 0) const {
    std::size_t seen = 0;
    for (const LoopAnalysis& la : pa.loops) {
      if (la.procName != procName) continue;
      // Reports list outer loops before their nested loops.
      if (seen++ == index) return la;
    }
    ADD_FAILURE() << "loop not found in " << procName;
    static LoopAnalysis dummy;
    return dummy;
  }
};

AnalysisRun runAnalysis(std::string_view src, AnalysisOptions options = {}) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  AnalysisRun r{analyzeProgramUnit(p ? std::move(*p) : Program{}, options, pool)};
  EXPECT_TRUE(r.pa.ok) << r.pa.error;
  return r;
}

const ArrayPrivatization* findArray(const LoopAnalysis& la, std::string_view name) {
  for (const ArrayPrivatization& ap : la.arrays)
    if (ap.name == name) return &ap;
  return nullptr;
}

TEST(AnalysisTest, IndependentWritesAreParallel) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, b, n)
      real a(100), b(100)
      integer n
      do i = 1, n
        a(i) = b(i) + 1
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  EXPECT_EQ(la.classification, LoopClass::Parallel);
  EXPECT_EQ(la.noCarriedFlow, Truth::True);
  EXPECT_EQ(la.noCarriedOutput, Truth::True);
  EXPECT_EQ(la.noCarriedAnti, Truth::True);
}

TEST(AnalysisTest, RecurrenceIsSerial) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, n)
      real a(100)
      integer n
      do i = 2, n
        a(i) = a(i - 1) + 1
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  EXPECT_EQ(la.classification, LoopClass::Serial);
  EXPECT_NE(la.noCarriedFlow, Truth::True);
}

TEST(AnalysisTest, AntiDependenceDetected) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, n)
      real a(100)
      integer n
      do i = 1, n
        a(i) = a(i + 1)
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  EXPECT_EQ(la.classification, LoopClass::Serial);
  EXPECT_EQ(la.noCarriedFlow, Truth::True);   // reads come from *later* iterations
  EXPECT_NE(la.noCarriedAnti, Truth::True);
}

TEST(AnalysisTest, WorkArrayIsPrivatizable) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, b, c, n, m)
      real a(100), b(100), c(100)
      integer n, m
      do i = 1, n
        do j = 1, m
          a(j) = b(j) * i
        enddo
        do j = 1, m
          c(i) = c(i) + a(j)
        enddo
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");  // the i loop
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->candidate);
  EXPECT_TRUE(ap->privatizable);
  EXPECT_EQ(la.classification, LoopClass::ParallelAfterPrivatization);
}

TEST(AnalysisTest, ExposedWorkArrayIsNotPrivatizable) {
  // The first read happens before the iteration's writes: values flow from
  // the previous iteration.
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, c, n, m)
      real a(100), c(100)
      integer n, m
      do i = 1, n
        do j = 1, m
          c(j) = c(j) + a(j)
        enddo
        do j = 1, m
          a(j) = c(j) * i
        enddo
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->candidate);
  EXPECT_FALSE(ap->privatizable);
  EXPECT_EQ(la.classification, LoopClass::Serial);
}

TEST(AnalysisTest, CopyOutDetection) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, c, n, m, x)
      real a(100), c(100), x
      integer n, m
      do i = 1, n
        do j = 1, m
          a(j) = i + j
        enddo
        do j = 1, m
          c(j) = c(j) + a(j)
        enddo
      enddo
      x = a(1)
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->privatizable);
  EXPECT_TRUE(ap->needsCopyOut);  // a(1) is read after the loop
}

TEST(AnalysisTest, NoCopyOutWhenDeadAfterLoop) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(c, n, m)
      real c(100)
      real a(100)
      integer n, m
      do i = 1, n
        do j = 1, m
          a(j) = i + j
        enddo
        do j = 1, m
          c(j) = c(j) + a(j)
        enddo
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->privatizable);
  EXPECT_FALSE(ap->needsCopyOut);
}

TEST(AnalysisTest, EscapingArrayNeedsCopyOut) {
  // A *formal* work array may be read by the caller: the local liveness
  // probe cannot clear it, so privatization must carry a last-value copy.
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, c, n, m)
      real a(100), c(100)
      integer n, m
      do i = 1, n
        do j = 1, m
          a(j) = i + j
        enddo
        do j = 1, m
          c(i) = c(i) + a(j)
        enddo
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->privatizable);
  EXPECT_TRUE(ap->needsCopyOut);
}

TEST(AnalysisTest, IterationDependentGuardBlocksLastValueCopy) {
  // The writes stop after iteration k: the final iteration may not rewrite
  // the (live, escaping) array, so a last-value copy is wrong — the
  // analysis must refuse to privatize.
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, c, n, m, k)
      real a(100), c(100)
      integer n, m, k
      do i = 1, n
        if (i .le. k) then
          do j = 1, m
            a(j) = i + j
          enddo
          do j = 1, m
            c(i) = c(i) + a(j)
          enddo
        endif
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_FALSE(ap->privatizable);
  // ... but the same shape with a LOCAL dead array is fine.
  AnalysisRun r2 = runAnalysis(R"(
      subroutine s(c, n, m, k)
      real c(100)
      real a(100)
      integer n, m, k
      do i = 1, n
        if (i .le. k) then
          do j = 1, m
            a(j) = i + j
          enddo
          do j = 1, m
            c(i) = c(i) + a(j)
          enddo
        endif
      enddo
      end
  )");
  const ArrayPrivatization* ap2 = findArray(r2.loop("s"), "a");
  ASSERT_NE(ap2, nullptr);
  EXPECT_TRUE(ap2->privatizable);
  EXPECT_FALSE(ap2->needsCopyOut);
}

TEST(AnalysisTest, ExposedScalarBlocksParallelization) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, n)
      real a(100)
      real t
      integer n
      do i = 1, n
        a(i) = t
        t = a(i) * 2
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  EXPECT_EQ(la.classification, LoopClass::Serial);
  ASSERT_EQ(la.scalars.size(), 1u);
  EXPECT_FALSE(la.scalars[0].privatizable);
}

TEST(AnalysisTest, SumReductionParallelizes) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, total, n)
      real a(100), total
      integer n
      do i = 1, n
        total = total + a(i)
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  ASSERT_EQ(la.scalars.size(), 1u);
  EXPECT_FALSE(la.scalars[0].privatizable);
  EXPECT_TRUE(la.scalars[0].reduction);
  EXPECT_EQ(la.scalars[0].reductionOp, '+');
  EXPECT_EQ(la.classification, LoopClass::Parallel);
}

TEST(AnalysisTest, ConditionalAndSubtractiveReductions) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, total, prod, n)
      real a(100), total, prod
      integer n
      do i = 1, n
        if (a(i) .gt. 0.0) then
          total = total - a(i)
        endif
        prod = prod * 2.0
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  EXPECT_EQ(la.classification, LoopClass::Parallel);
  for (const ScalarInfo& si : la.scalars) {
    EXPECT_TRUE(si.reduction) << si.name;
    EXPECT_EQ(si.reductionOp, si.name == "prod" ? '*' : '+');
  }
}

TEST(AnalysisTest, ObservedAccumulatorIsNotAReduction) {
  // `total` is read outside its accumulation: mid-loop observation defeats
  // the reduction transformation.
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, b, total, n)
      real a(100), b(100), total
      integer n
      do i = 1, n
        total = total + a(i)
        b(i) = total
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  ASSERT_EQ(la.scalars.size(), 1u);
  EXPECT_FALSE(la.scalars[0].reduction);
  EXPECT_EQ(la.classification, LoopClass::Serial);
}

TEST(AnalysisTest, MixedOpsAreNotAReduction) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, acc, n)
      real a(100), acc
      integer n
      do i = 1, n
        acc = acc + a(i)
        acc = acc * 2.0
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  ASSERT_EQ(la.scalars.size(), 1u);
  EXPECT_FALSE(la.scalars[0].reduction);
  EXPECT_EQ(la.classification, LoopClass::Serial);
}

TEST(AnalysisTest, PrivateScalarIsFine) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, n)
      real a(100)
      real t
      integer n
      do i = 1, n
        t = i * 2
        a(i) = t
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  EXPECT_EQ(la.classification, LoopClass::Parallel);
}

// ---------------------------------------------------------------------------
// The paper's motivating cases (Figure 1).
// ---------------------------------------------------------------------------

// Figure 1(b) — ARC2D filerx: a loop-invariant IF condition guards both the
// write and (complementarily) the exposure of A(jmax).
constexpr const char* kFig1b = R"(
      subroutine filerx(a, c, jlow, jup, jmax, p, n)
      real a(200), c(200)
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
          c(j) = a(j) + a(jmax)
        enddo
      enddo
      end
)";

TEST(AnalysisTest, Fig1bPrivatizesA) {
  AnalysisRun r = runAnalysis(kFig1b);
  const LoopAnalysis& la = r.loop("filerx");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->candidate);
  EXPECT_TRUE(ap->privatizable) << ap->reason;
  EXPECT_EQ(la.classification, LoopClass::ParallelAfterPrivatization);
}

TEST(AnalysisTest, Fig1bNeedsIfConditions) {
  AnalysisOptions opt;
  opt.ifConditions = false;  // T2 off
  AnalysisRun r = runAnalysis(kFig1b, opt);
  const LoopAnalysis& la = r.loop("filerx");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_FALSE(ap->privatizable);
}

TEST(AnalysisTest, Fig1bNeedsSymbolicAnalysis) {
  AnalysisOptions opt;
  opt.symbolicAnalysis = false;  // T1 off: jlow/jup/jmax are symbolic
  AnalysisRun r = runAnalysis(kFig1b, opt);
  const LoopAnalysis& la = r.loop("filerx");
  const ArrayPrivatization* ap = findArray(la, "a");
  if (ap) {
    EXPECT_FALSE(ap->privatizable);
  }
}

// Figure 1(c) — OCEAN: interprocedural implication between the guards of
// the two callees.
constexpr const char* kFig1c = R"(
      subroutine ocean(c, n, m)
      real c(100)
      real a(100)
      integer n, m
      real x
      do i = 1, n
        x = i * 1.0
        call inp(a, x, m)
        call outp(a, c, x, m, i)
      enddo
      end
      subroutine inp(b, x, mm)
      real b(100)
      real x
      integer mm
      if (x .gt. 100.0) return
      do j = 1, mm
        b(j) = x
      enddo
      end
      subroutine outp(b, c, x, mm, ii)
      real b(100), c(100)
      real x
      integer mm, ii
      if (x .gt. 100.0) return
      do j = 1, mm
        c(ii) = c(ii) + b(j)
      enddo
      end
)";

TEST(AnalysisTest, Fig1cPrivatizesA) {
  AnalysisRun r = runAnalysis(kFig1c);
  const LoopAnalysis& la = r.loop("ocean");
  const ArrayPrivatization* ap = findArray(la, "a");
  ASSERT_NE(ap, nullptr);
  EXPECT_TRUE(ap->candidate);
  EXPECT_TRUE(ap->privatizable) << ap->reason;
  EXPECT_EQ(la.classification, LoopClass::ParallelAfterPrivatization);
}

TEST(AnalysisTest, Fig1cNeedsInterprocedural) {
  AnalysisOptions opt;
  opt.interprocedural = false;  // T3 off
  AnalysisRun r = runAnalysis(kFig1c, opt);
  const LoopAnalysis& la = r.loop("ocean");
  const ArrayPrivatization* ap = findArray(la, "a");
  if (ap) {
    EXPECT_FALSE(ap->privatizable);
  }
  EXPECT_EQ(la.classification, LoopClass::Serial);
}

// Figure 1(a) — MDG interf: needs inference between IF conditions across a
// conditionally-incremented counter. The base analysis (like the paper's)
// must stay conservative: `a` is NOT privatizable without the quantified
// extension, and crucially the analysis must not privatize it wrongly.
constexpr const char* kFig1a = R"(
      subroutine interf(a, b, c, nmol1, cut2)
      real a(20), b(20), c(20)
      integer nmol1, kc
      real cut2, ttemp
      do i = 1, nmol1
        kc = 0
        do k = 1, 9
          b(k) = k * i
          if (b(k) .gt. cut2) kc = kc + 1
        enddo
        do 1 k = 2, 5
          if (b(k + 4) .gt. cut2) goto 1
          a(k + 4) = i
 1      continue
        if (kc .ne. 0) goto 2
        do k = 11, 14
          ttemp = a(k - 5) * 2
          c(k) = ttemp
        enddo
 2      continue
      enddo
      end
)";

TEST(AnalysisTest, Fig1aBaseAnalysisIsConservative) {
  AnalysisRun r = runAnalysis(kFig1a);
  const LoopAnalysis& la = r.loop("interf");
  const ArrayPrivatization* b = findArray(la, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->privatizable) << b->reason;  // the easy case, like the paper
  const ArrayPrivatization* a = findArray(la, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->candidate);
  EXPECT_FALSE(a->privatizable);  // §5.2: needs ∀ quantifiers — future work
}

TEST(AnalysisTest, ZeroTripAndUnknownBounds) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, b, n)
      real a(100), b(100)
      integer n, k
      k = n * n
      do i = 1, k
        a(i) = b(i)
      enddo
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  // Bounds are symbolic but representable (k = n*n substituted on the fly).
  EXPECT_TRUE(la.boundsKnown);
  EXPECT_EQ(la.classification, LoopClass::Parallel);
}

TEST(AnalysisTest, PrematureExitLoopStaysSafe) {
  AnalysisRun r = runAnalysis(R"(
      subroutine s(a, b, n)
      real a(100), b(100)
      integer n
      do i = 1, n
        if (b(i) .gt. 0.0) goto 99
        a(i) = b(i)
      enddo
 99   continue
      end
  )");
  const LoopAnalysis& la = r.loop("s");
  // The analysis may or may not parallelize an early-exit loop, but it must
  // never claim privatization of `a` is needed, and `b` stays read-only.
  const ArrayPrivatization* b = findArray(la, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->written);
}

TEST(AnalysisTest, ReportFormatting) {
  AnalysisRun r = runAnalysis(kFig1b);
  std::string report = formatLoopAnalysis(r.loop("filerx"));
  EXPECT_NE(report.find("filerx"), std::string::npos);
  EXPECT_NE(report.find("privatizable"), std::string::npos);
}

// A moved ProgramAnalysis keeps a working analyzer: after move-assignment
// and after move-construction it points at its own program/sema/hsg, and
// re-running every loop through it reproduces the copy-initialized reports.
TEST(AnalysisTest, MovedProgramAnalysisRerunsEveryLoopIdentically) {
  ThreadPool pool(1);
  for (const CorpusLoop& cl : perfectCorpus()) {
    SCOPED_TRACE(cl.id);
    auto analyze = [&] {
      DiagnosticEngine diags;
      std::optional<Program> p = parseProgram(cl.source, diags);
      EXPECT_TRUE(p.has_value()) << diags.str();
      return analyzeProgramUnit(p ? std::move(*p) : Program{}, AnalysisOptions{}, pool);
    };
    const ProgramAnalysis reference = analyze();
    ASSERT_TRUE(reference.ok) << reference.error;
    auto rerunMatchesReference = [&](ProgramAnalysis& pa) {
      ASSERT_TRUE(pa.ok) << pa.error;
      ASSERT_EQ(&pa.analyzer->sema(), &pa.sema);
      LoopParallelizer lp(*pa.analyzer);
      std::size_t k = 0;
      for (const Procedure* proc : pa.sema.bottomUpOrder) {
        for (const Stmt* loop : collectDoLoops(proc->body)) {
          ASSERT_LT(k, reference.loops.size());
          EXPECT_EQ(formatLoopAnalysis(lp.analyzeLoop(*loop, *proc)),
                    formatLoopAnalysis(reference.loops[k++]));
        }
      }
      EXPECT_EQ(k, reference.loops.size());
    };

    ProgramAnalysis assigned;
    assigned = analyze();
    rerunMatchesReference(assigned);
    ProgramAnalysis constructed(std::move(assigned));
    rerunMatchesReference(constructed);
  }
}

}  // namespace
}  // namespace panorama
