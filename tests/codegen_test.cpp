// Tests for the parallel-source emitter: directive content, placement
// (outermost only), and a full round trip — the annotated source must
// re-parse, re-analyze, and execute identically.
#include <gtest/gtest.h>

#include "panorama/analysis/driver.h"
#include "panorama/codegen/annotate.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

struct Annotated {
  ProgramAnalysis pa;
  std::string output;
};

Annotated annotate(std::string_view src, AnalysisOptions options = {}) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  Annotated a{analyzeProgramUnit(p ? std::move(*p) : Program{}, options, pool), {}};
  EXPECT_TRUE(a.pa.ok) << a.pa.error;
  a.output = emitParallelSource(a.pa.program, a.pa.loops);
  return a;
}

TEST(CodegenTest, SimpleLoopGetsDirective) {
  Annotated a = annotate(R"(
      subroutine s(a, b, n)
      real a(100), b(100)
      integer n
      do i = 1, n
        a(i) = b(i) + 1
      enddo
      end
  )");
  EXPECT_NE(a.output.find("c$omp parallel do"), std::string::npos);
  EXPECT_NE(a.output.find("c$omp end parallel do"), std::string::npos);
}

TEST(CodegenTest, SerialLoopStaysBare) {
  Annotated a = annotate(R"(
      subroutine s(a, n)
      real a(100)
      integer n
      do i = 2, n
        a(i) = a(i - 1)
      enddo
      end
  )");
  EXPECT_EQ(a.output.find("c$omp"), std::string::npos);
}

TEST(CodegenTest, PrivatizationClauses) {
  Annotated a = annotate(R"(
      subroutine s(a, c, n, m, x)
      real a(100), c(100), x
      real t
      integer n, m
      do i = 1, n
        t = i * 2
        do j = 1, m
          a(j) = t + j
        enddo
        do j = 1, m
          c(i) = c(i) + a(j)
        enddo
      enddo
      x = a(1)
      end
  )");
  // `a` is live after the loop: lastprivate; `t` (and the inner index j)
  // are iteration-private scalars.
  EXPECT_NE(a.output.find("lastprivate(a)"), std::string::npos);
  std::size_t priv = a.output.find("private(");
  ASSERT_NE(priv, std::string::npos);
  std::string line = a.output.substr(priv, a.output.find('\n', priv) - priv);
  EXPECT_NE(line.find("t"), std::string::npos) << line;
  EXPECT_NE(line.find("j"), std::string::npos) << line;
}

TEST(CodegenTest, DeadWorkArrayIsPlainPrivate) {
  Annotated a = annotate(R"(
      subroutine s(c, n, m)
      real c(100)
      real a(100)
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
  EXPECT_NE(a.output.find("private(a"), std::string::npos);
  EXPECT_EQ(a.output.find("lastprivate"), std::string::npos);
}

TEST(CodegenTest, ReductionClause) {
  Annotated a = annotate(R"(
      subroutine s(a, total, n)
      real a(100), total
      integer n
      do i = 1, n
        total = total + a(i)
      enddo
      end
  )");
  EXPECT_NE(a.output.find("reduction(+: total)"), std::string::npos) << a.output;
}

TEST(CodegenTest, OnlyOutermostLoopAnnotated) {
  Annotated a = annotate(R"(
      subroutine s(a, b, n, m)
      real a(100, 100), b(100, 100)
      integer n, m
      do i = 1, n
        do j = 1, m
          a(j, i) = b(j, i) * 2
        enddo
      enddo
      end
  )");
  // Both loops are parallel, but the inner one sits inside the annotated
  // region: exactly one directive pair.
  std::size_t first = a.output.find("c$omp parallel do");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(a.output.find("c$omp parallel do", first + 1), std::string::npos);
}

TEST(CodegenTest, AnnotatedSourceRoundTrips) {
  for (const CorpusLoop& cl : perfectCorpus()) {
    Annotated a = annotate(cl.source);
    SCOPED_TRACE(cl.id);
    // The directive must appear for the evaluated loop when the analysis
    // parallelized it.
    // Re-parse the annotated output (directives lex as comments)...
    DiagnosticEngine diags;
    auto p2 = parseProgram(a.output, diags);
    ASSERT_TRUE(p2.has_value()) << diags.str() << "\n" << a.output;
    auto sr2 = analyze(*p2, diags);
    ASSERT_TRUE(sr2.has_value()) << diags.str();
    // ...and both versions must execute to identical memory.
    Interpreter original(a.pa.program, a.pa.sema);
    auto r1 = original.run({});
    ASSERT_TRUE(r1.ok) << r1.error;
    Interpreter reparsed(*p2, *sr2);
    auto r2 = reparsed.run({});
    ASSERT_TRUE(r2.ok) << r2.error;
    // Compare per-array contents through names (ids may differ).
    for (const auto& [id, store] : original.arrays()) {
      auto other = sr2->arrays.lookup(a.pa.sema.arrays.name(id));
      ASSERT_TRUE(other.has_value()) << a.pa.sema.arrays.name(id);
      auto it = reparsed.arrays().find(*other);
      if (it == reparsed.arrays().end()) {
        EXPECT_TRUE(store.empty());
      } else {
        EXPECT_EQ(it->second, store) << a.pa.sema.arrays.name(id);
      }
    }
  }
}

TEST(CodegenTest, CorpusDirectivesCoverPrivatizableArrays) {
  int annotated = 0;
  for (const CorpusLoop& cl : perfectCorpus()) {
    Annotated a = annotate(cl.source);
    for (const LoopAnalysis& la : a.pa.loops) {
      if (la.loop != findOuterLoop(a.pa.program, cl.routine, cl.outerLoopIndex)) continue;
      std::string d = directiveFor(la);
      if (la.classification == LoopClass::Serial) continue;
      ++annotated;
      for (const std::string& name : cl.privatizable)
        EXPECT_NE(d.find(name), std::string::npos) << cl.id << ": " << d;
    }
  }
  // Every loop except MDG interf (held serial by RL in the base analysis)
  // must carry a directive.
  EXPECT_GE(annotated, 10);
}

TEST(CodegenTest, QuantifiedExtensionUnlocksMdg) {
  const CorpusLoop* mdg = nullptr;
  for (const CorpusLoop& cl : perfectCorpus())
    if (cl.id == "MDG interf/1000") mdg = &cl;
  ASSERT_NE(mdg, nullptr);
  AnalysisOptions quantified;
  quantified.quantified = true;
  Annotated a = annotate(mdg->source, quantified);
  bool found = false;
  for (const LoopAnalysis& la : a.pa.loops) {
    if (la.loop != findOuterLoop(a.pa.program, "interf", 0)) continue;
    std::string d = directiveFor(la);
    found = d.find("rl") != std::string::npos;
  }
  EXPECT_TRUE(found) << a.output;
}

}  // namespace
}  // namespace panorama
