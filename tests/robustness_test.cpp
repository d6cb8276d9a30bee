// Robustness and edge-case coverage across the stack: malformed input
// recovery, printing round-trips, degenerate loops, budget valves, and
// adversarial shapes the main suites do not reach.
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

// --------------------------------------------------------------- frontend

TEST(RobustnessTest, LexerRejectsGarbage) {
  for (const char* bad : {"x = @", "x = 1 .foo. 2", "x = .tru", "x = 1 &junk\n2"}) {
    DiagnosticEngine diags;
    lex(bad, diags);
    EXPECT_TRUE(diags.hasErrors()) << bad;
  }
}

TEST(RobustnessTest, LexerNumericForms) {
  DiagnosticEngine diags;
  auto toks = lex("x = 1.5e2 + .25 + 3. + 1e-2 + 2d0", diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.str();
  int reals = 0;
  for (const Token& t : toks) reals += t.kind == TokKind::RealLit;
  EXPECT_EQ(reals, 5);
}

TEST(RobustnessTest, ParserRejectsMalformedPrograms) {
  const char* bad[] = {
      "subroutine s(\n end\n",                  // unterminated parameter list
      "program p\n do i = 1\n enddo\n end\n",   // DO missing bound
      "program p\n if (x then\n endif\n end\n", // broken condition
      "program p\n goto\n end\n",               // GOTO without label
      "program p\n x = (1 + 2\n end\n",         // unbalanced parens
      "program p\n call\n end\n",               // call without target (parses as assignment)
  };
  for (const char* src : bad) {
    DiagnosticEngine diags;
    auto p = parseProgram(src, diags);
    EXPECT_TRUE(!p.has_value() || diags.hasErrors()) << src;
  }
}

TEST(RobustnessTest, SemaRejectsBadLabels) {
  DiagnosticEngine diags;
  auto p = parseProgram("program p\n goto 7\n end\n", diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  // The label error surfaces during HSG construction.
  if (sr) {
    Hsg hsg = buildHsg(*p, diags);
    EXPECT_TRUE(diags.hasErrors());
  }
}

TEST(RobustnessTest, DuplicateLabelRejected) {
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      program p
      integer x
 5    x = 1
 5    x = 2
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value());
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  buildHsg(*p, diags);
  EXPECT_TRUE(diags.hasErrors());
}

// ------------------------------------------------------------ degenerates

TEST(RobustnessTest, DegenerateLoops) {
  // Zero-trip, single-trip, and reversed loops must analyze and execute.
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      program p
      real a(50)
      do i = 5, 1
        a(i) = 1
      enddo
      do i = 3, 3
        a(i) = 2
      enddo
      do i = 10, 6, -2
        a(i) = 3
      enddo
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Hsg hsg = buildHsg(*p, diags);
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  const ProcSummary& ps = analyzer.procSummary(p->procedures[0]);

  Interpreter interp(*p, *sr);
  auto res = interp.run({});
  ASSERT_TRUE(res.ok) << res.error;
  ArrayId a = *sr->procs.at("p").arrayId("a");
  // Interpreter truth: {3} from the single-trip loop, {6, 8, 10} reversed.
  EXPECT_EQ(interp.arrays().at(a).size(), 4u);
  // Analyzer agreement on the whole-program MOD.
  auto mod = ps.modAll.enumerate(a, {});
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->size(), 4u);
  EXPECT_TRUE(mod->count({3}));
  EXPECT_TRUE(mod->count({8}));
}

TEST(RobustnessTest, EmptyProcedureAndNoArrays) {
  DiagnosticEngine diags;
  auto p = parseProgram("program p\n end\n", diags);
  ASSERT_TRUE(p.has_value());
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Hsg hsg = buildHsg(*p, diags);
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  const ProcSummary& ps = analyzer.procSummary(p->procedures[0]);
  EXPECT_TRUE(ps.mod.empty());
  EXPECT_TRUE(ps.ue.empty());
}

TEST(RobustnessTest, DeepNesting) {
  // Five nested loops with a shared work vector: the analysis must not blow
  // up and the innermost privatization pattern must still resolve.
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      subroutine s(a, c, n)
      real a(100), c(100)
      integer n
      do i1 = 1, n
        do i2 = 1, n
          do i3 = 1, n
            do i4 = 1, n
              do j = 1, n
                a(j) = i1 + i2 + i3 + i4
              enddo
              do j = 1, n
                c(i4) = c(i4) + a(j)
              enddo
            enddo
          enddo
        enddo
      enddo
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value());
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*p), {}, pool);
  ASSERT_TRUE(pa.ok) << pa.error;
  ASSERT_EQ(pa.loops.size(), 6u);
  // The i4 loop privatizes `a`.
  bool found = false;
  for (const LoopAnalysis& la : pa.loops) {
    if (la.loop->doVar != "i4") continue;
    for (const ArrayPrivatization& ap : la.arrays)
      if (ap.name == "a") found = ap.privatizable;
  }
  EXPECT_TRUE(found);
}

TEST(RobustnessTest, GuardAtInt64MaxAnalyzes) {
  // Comparing the loop index against the largest int64 constant asks
  // whether i <= MAX is entailed, whose negation -i + MAX + 1 is not
  // representable: the entailment is inconclusive, never an overflow.
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      subroutine big(a, n)
      integer n
      real a(n)
      do i = 1, n
        if (i .le. 9223372036854775807) then
          a(i) = 1.0
        endif
      enddo
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  ThreadPool pool(1);
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*p), {}, pool);
  ASSERT_TRUE(pa.ok) << pa.error;
  ASSERT_EQ(pa.loops.size(), 1u);
  ASSERT_EQ(pa.loops[0].arrays.size(), 1u);
  EXPECT_EQ(pa.loops[0].arrays[0].name, "a");
}

TEST(RobustnessTest, LongCallChain) {
  // Summaries must compose down an 8-deep call chain.
  std::string src = "program p\n real a(50)\n call f1(a)\n end\n";
  for (int k = 1; k <= 8; ++k) {
    src += "subroutine f" + std::to_string(k) + "(b)\n real b(50)\n";
    if (k < 8)
      src += " call f" + std::to_string(k + 1) + "(b)\n";
    else
      src += " do j = 1, 9\n  b(j) = j\n enddo\n";
    src += " end\n";
  }
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Hsg hsg = buildHsg(*p, diags);
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  const ProcSummary& ps = analyzer.procSummary(p->procedures[0]);
  ArrayId a = *sr->procs.at("p").arrayId("a");
  auto mod = ps.modAll.enumerate(a, {});
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->size(), 9u);
}

// --------------------------------------------------------------- printing

TEST(RobustnessTest, PrintingNeverCrashes) {
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      subroutine s(a, n, flag)
      real a(100)
      integer n
      logical flag
      do i = 1, n
        if (flag .and. i .lt. n / 2 + mod(n, 3)) then
          a(i) = -a(i + 1) ** 2
        endif
      enddo
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  std::string printed = toString(*p);
  EXPECT_NE(printed.find("subroutine s"), std::string::npos);
  // Round-trip: the printed program re-parses.
  DiagnosticEngine diags2;
  auto p2 = parseProgram(printed, diags2);
  EXPECT_TRUE(p2.has_value()) << diags2.str() << "\n" << printed;
}

TEST(RobustnessTest, GarListRendering) {
  SymbolTable tab;
  ArrayTable arrays;
  SymExpr one = SymExpr::constant(1);
  ArrayId a = arrays.intern("buf", {SymRange{one, SymExpr::constant(64), one}});
  GarList list;
  EXPECT_EQ(list.str(tab, arrays), "{}");
  list.add(Gar::omega(a, 1));
  EXPECT_NE(list.str(tab, arrays).find("buf(?)"), std::string::npos);
  VarId n = tab.intern("n");
  list.add(Gar::make(Pred::atom(Atom::le(SymExpr::variable(n), SymExpr::constant(9))),
                     Region{a, {SymRange{one, SymExpr::variable(n), one}}}));
  std::string s = list.str(tab, arrays);
  EXPECT_NE(s.find(" U "), std::string::npos);
  EXPECT_NE(s.find("buf(1:n)"), std::string::npos);
}

// ----------------------------------------------------------------- limits

TEST(RobustnessTest, ManyDistinctWritesStayBounded) {
  // 24 separate single-element writes: the union must merge into one range
  // and list sizes must stay far below the blow-up valves.
  std::string src = "subroutine s(a)\n real a(100)\n";
  for (int k = 1; k <= 24; ++k) src += " a(" + std::to_string(k) + ") = " + std::to_string(k) + "\n";
  src += " end\n";
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  ASSERT_TRUE(p.has_value());
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Hsg hsg = buildHsg(*p, diags);
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  const ProcSummary& ps = analyzer.procSummary(p->procedures[0]);
  EXPECT_EQ(ps.mod.size(), 1u);  // merged to a(1:24)
  auto mod = ps.mod.enumerate(*sr->procs.at("s").arrayId("a"), {});
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->size(), 24u);
}

TEST(RobustnessTest, PredicateBlowupDegradesToDelta) {
  // OR-ing many two-atom predicates overflows the CNF valve: the result
  // must become Δ (never False, never a wrong answer).
  SymbolTable tab;
  SymExpr x = SymExpr::variable(tab.intern("x"));
  Pred big = Pred::makeFalse();
  for (int k = 0; k < 12; ++k) {
    Pred piece = Pred::atom(Atom::ge(x, SymExpr::constant(10 * k))) &&
                 Pred::atom(Atom::le(x, SymExpr::constant(10 * k + 5)));
    big = big || piece;
  }
  EXPECT_TRUE(big.isUnknown() || !big.clauses().empty());
  EXPECT_FALSE(big.isFalse());
  EXPECT_TRUE(big.mayHold());
}

TEST(RobustnessTest, InterpreterStepBudgetOnPathologicalGoto) {
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      program p
      integer x
 10   x = x + 1
      goto 10
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value());
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Interpreter interp(*p, *sr);
  Interpreter::Config cfg;
  cfg.maxSteps = 10'000;
  auto res = interp.run(cfg);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("step limit"), std::string::npos);
}

TEST(RobustnessTest, CondensedCycleAnalyzesConservatively) {
  // The backward-GOTO cycle condenses; the analysis must still terminate
  // and must NOT claim exact knowledge of the written region.
  DiagnosticEngine diags;
  auto p = parseProgram(R"(
      subroutine s(a, n)
      real a(100)
      integer n, k
      k = 1
 10   a(k) = k
      k = k + 1
      if (k .le. n) goto 10
      end
  )",
                        diags);
  ASSERT_TRUE(p.has_value());
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value());
  Hsg hsg = buildHsg(*p, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.str();
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  const ProcSummary& ps = analyzer.procSummary(p->procedures[0]);
  ArrayId a = *sr->procs.at("s").arrayId("a");
  GarList mods = ps.mod.forArray(a);
  ASSERT_FALSE(mods.empty());
  for (const Gar& g : mods.gars()) EXPECT_FALSE(g.isExact());
}

}  // namespace
}  // namespace panorama
