// Tests for the §5.2/§5.3 quantified-guard extension: uninterpreted array
// predicates, the guarded-counter ∀ rewrite, ψ1 dimension predicates — and,
// crucially, the soundness fences (idiom near-misses must NOT privatize).
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"

namespace panorama {
namespace {

struct QRun {
  ProgramAnalysis pa;
  LoopAnalysis loop;  ///< the first outermost loop of the routine
};

QRun runQ(std::string_view src, const char* routine, bool quantified = true) {
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  AnalysisOptions options;
  options.quantified = quantified;
  ThreadPool pool(1);
  QRun r{analyzeProgramUnit(p ? std::move(*p) : Program{}, options, pool), {}};
  EXPECT_TRUE(r.pa.ok) << r.pa.error;
  const Stmt* loop = findOuterLoop(r.pa.program, routine, 0);
  EXPECT_NE(loop, nullptr);
  for (const LoopAnalysis& la : r.pa.loops)
    if (la.loop == loop) r.loop = la;
  return r;
}

bool privatizable(const LoopAnalysis& la, std::string_view name) {
  for (const ArrayPrivatization& ap : la.arrays)
    if (ap.name == name) return ap.privatizable;
  return false;
}

// ---------------------------------------------------------------- atoms

TEST(QuantifiedAtomTest, ArrayPredBasics) {
  SymbolTable tab;
  VarId key = tab.intern("ap$le");
  VarId k = tab.intern("k");
  SymExpr K = SymExpr::variable(k);
  SymExpr rhs = SymExpr::variable(tab.intern("cut"));
  Atom q = Atom::arrayPred(AtomArrayRef{3}, key, K + 4, rhs, true);
  Atom nq = q.negated();
  EXPECT_EQ(nq.negated(), q);
  EXPECT_NE(q, nq);
  EXPECT_EQ(atomsContradict(q, nq), Truth::True);
  // Substitution rewrites both subscript and rhs.
  Atom q2 = q.substituted(k, SymExpr::constant(2));
  EXPECT_EQ(q2.expr().constantValue(), 6);
  EXPECT_FALSE(q.evaluate({{k, 1}}).has_value());  // uninterpreted
}

TEST(QuantifiedAtomTest, ForallInstantiation) {
  SymbolTable tab;
  VarId key = tab.intern("ap$le");
  VarId k = tab.intern("k");
  SymExpr K = SymExpr::variable(k);
  SymExpr rhs = SymExpr::constant(7);
  // forall k in [1,9]: !q(k)   vs   q(6): contradiction (6 in [1,9]).
  Atom fa = Atom::forallPred(AtomArrayRef{1}, key, k, K, rhs, SymExpr::constant(1),
                             SymExpr::constant(9), false);
  Atom q6 = Atom::arrayPred(AtomArrayRef{1}, key, SymExpr::constant(6), rhs, true);
  EXPECT_EQ(atomsContradict(fa, q6), Truth::True);
  // q(12) is outside the range: no contradiction.
  Atom q12 = Atom::arrayPred(AtomArrayRef{1}, key, SymExpr::constant(12), rhs, true);
  EXPECT_EQ(atomsContradict(fa, q12), Truth::Unknown);
  // Same polarity: no contradiction.
  Atom nq6 = q6.negated();
  EXPECT_EQ(atomsContradict(fa, nq6), Truth::Unknown);
  // A different rhs is a different predicate.
  Atom qOther = Atom::arrayPred(AtomArrayRef{1}, key, SymExpr::constant(6),
                                SymExpr::constant(8), true);
  EXPECT_EQ(atomsContradict(fa, qOther), Truth::Unknown);
}

TEST(QuantifiedAtomTest, ForallWithSymbolicInstanceNeedsContext) {
  SymbolTable tab;
  VarId key = tab.intern("ap$le");
  VarId k = tab.intern("k");
  VarId psi = tab.intern("psi$1");
  SymExpr K = SymExpr::variable(k);
  SymExpr P = SymExpr::variable(psi);
  SymExpr rhs = SymExpr::constant(7);
  Atom fa = Atom::forallPred(AtomArrayRef{1}, key, k, K, rhs, SymExpr::constant(1),
                             SymExpr::constant(9), false);
  Atom qPsi = Atom::arrayPred(AtomArrayRef{1}, key, P, rhs, true);
  // Pairwise (context-free): unknown — ψ's range is not visible.
  EXPECT_EQ(atomsContradict(fa, qPsi), Truth::Unknown);
  // With ψ-range atoms in the same conjunction, the predicate simplifier
  // instantiates the quantifier and finds the contradiction.
  Pred all = Pred::atom(fa) && Pred::atom(qPsi) &&
             Pred::atom(Atom::ge(P, SymExpr::constant(6))) &&
             Pred::atom(Atom::le(P, SymExpr::constant(9)));
  EXPECT_EQ(all.provablyFalse(), Truth::True);
  // Range [6, 12] sticks out of [1, 9]: must NOT conclude.
  Pred partial = Pred::atom(fa) && Pred::atom(qPsi) &&
                 Pred::atom(Atom::ge(P, SymExpr::constant(6))) &&
                 Pred::atom(Atom::le(P, SymExpr::constant(12)));
  EXPECT_NE(partial.provablyFalse(), Truth::True);
}

// ------------------------------------------------------------ Figure 1(a)

TEST(QuantifiedTest, Fig1aPrivatizesWithExtension) {
  QRun base = runQ(fig1aSource(), "interf", /*quantified=*/false);
  EXPECT_FALSE(privatizable(base.loop, "a"));
  QRun ext = runQ(fig1aSource(), "interf", /*quantified=*/true);
  EXPECT_TRUE(privatizable(ext.loop, "a")) << formatLoopAnalysis(ext.loop);
  EXPECT_TRUE(privatizable(ext.loop, "b"));
}

TEST(QuantifiedTest, MdgRlPrivatizesWithExtension) {
  const CorpusLoop* mdg = nullptr;
  for (const CorpusLoop& cl : perfectCorpus())
    if (cl.id == "MDG interf/1000") mdg = &cl;
  ASSERT_NE(mdg, nullptr);
  QRun ext = runQ(mdg->source, "interf", /*quantified=*/true);
  EXPECT_TRUE(privatizable(ext.loop, "rl")) << formatLoopAnalysis(ext.loop);
  // The extension must not lose anything the base analysis had.
  for (const std::string& name : mdg->privatizable)
    EXPECT_TRUE(privatizable(ext.loop, name)) << name;
}

// --------------------------------------------------- soundness fences

// Same as Figure 1(a) but the reads reach one element past the writes:
// rl(6:10) read vs rl(6:9) written — the extension must NOT privatize.
TEST(QuantifiedTest, ReadBeyondWrittenRangeStaysExposed) {
  QRun r = runQ(R"(
      subroutine interf(nmol1, cut2)
      integer nmol1
      real cut2
      real a(20), b(20)
      integer kc
      real t
      do i = 1, nmol1
        kc = 0
        do k = 1, 9
          b(k) = k + i
          if (b(k) .gt. cut2) kc = kc + 1
        enddo
        do 1 k = 2, 5
          if (b(k + 4) .gt. cut2) goto 1
          a(k + 4) = b(k) * 2.0
 1      continue
        if (kc .ne. 0) goto 2
        do k = 11, 15
          t = a(k - 5) * 0.5
        enddo
 2      continue
      enddo
      end
  )",
                "interf");
  EXPECT_FALSE(privatizable(r.loop, "a"));
}

// The counter starts at 1, not 0: kc == 0 no longer means "no q held".
TEST(QuantifiedTest, NonZeroInitDefeatsIdiom) {
  QRun r = runQ(R"(
      subroutine interf(nmol1, cut2)
      integer nmol1
      real cut2
      real a(20), b(20)
      integer kc
      real t
      do i = 1, nmol1
        kc = 1
        do k = 1, 9
          b(k) = k + i
          if (b(k) .gt. cut2) kc = kc + 1
        enddo
        do 1 k = 2, 5
          if (b(k + 4) .gt. cut2) goto 1
          a(k + 4) = b(k) * 2.0
 1      continue
        if (kc .ne. 0) goto 2
        do k = 11, 14
          t = a(k - 5) * 0.5
        enddo
 2      continue
      enddo
      end
  )",
                "interf");
  EXPECT_FALSE(privatizable(r.loop, "a"));
}

// The tested array is rewritten between the counting loop and the guarded
// writes: the recorded ∀ fact goes stale and must be dropped.
TEST(QuantifiedTest, ArrayRewriteBetweenTaints) {
  QRun r = runQ(R"(
      subroutine interf(nmol1, cut2)
      integer nmol1
      real cut2
      real a(20), b(20)
      integer kc
      real t
      do i = 1, nmol1
        kc = 0
        do k = 1, 9
          b(k) = k + i
          if (b(k) .gt. cut2) kc = kc + 1
        enddo
        do k = 1, 9
          b(k) = b(k) * 2.0
        enddo
        do 1 k = 2, 5
          if (b(k + 4) .gt. cut2) goto 1
          a(k + 4) = b(k) * 2.0
 1      continue
        if (kc .ne. 0) goto 2
        do k = 11, 14
          t = a(k - 5) * 0.5
        enddo
 2      continue
      enddo
      end
  )",
                "interf");
  EXPECT_FALSE(privatizable(r.loop, "a"));
}

// The counter is also bumped unconditionally: the ∀ equivalence breaks.
TEST(QuantifiedTest, UnconditionalIncrementDefeatsIdiom) {
  QRun r = runQ(R"(
      subroutine interf(nmol1, cut2)
      integer nmol1
      real cut2
      real a(20), b(20)
      integer kc
      real t
      do i = 1, nmol1
        kc = 0
        do k = 1, 9
          b(k) = k + i
          kc = kc + 1
          if (b(k) .gt. cut2) kc = kc + 1
        enddo
        do 1 k = 2, 5
          if (b(k + 4) .gt. cut2) goto 1
          a(k + 4) = b(k) * 2.0
 1      continue
        if (kc .ne. 0) goto 2
        do k = 11, 14
          t = a(k - 5) * 0.5
        enddo
 2      continue
      enddo
      end
  )",
                "interf");
  EXPECT_FALSE(privatizable(r.loop, "a"));
}

// A *different* threshold in the write guards: q(cut2) facts say nothing
// about q(cut3) tests.
TEST(QuantifiedTest, DifferentThresholdIsDifferentPredicate) {
  QRun r = runQ(R"(
      subroutine interf(nmol1, cut2, cut3)
      integer nmol1
      real cut2, cut3
      real a(20), b(20)
      integer kc
      real t
      do i = 1, nmol1
        kc = 0
        do k = 1, 9
          b(k) = k + i
          if (b(k) .gt. cut2) kc = kc + 1
        enddo
        do 1 k = 2, 5
          if (b(k + 4) .gt. cut3) goto 1
          a(k + 4) = b(k) * 2.0
 1      continue
        if (kc .ne. 0) goto 2
        do k = 11, 14
          t = a(k - 5) * 0.5
        enddo
 2      continue
      enddo
      end
  )",
                "interf");
  EXPECT_FALSE(privatizable(r.loop, "a"));
}

// The extension must not regress anything across the whole corpus.
TEST(QuantifiedTest, NoRegressionOnCorpus) {
  for (const CorpusLoop& cl : perfectCorpus()) {
    QRun r = runQ(cl.source, cl.routine.c_str(), /*quantified=*/true);
    for (const std::string& name : cl.privatizable)
      EXPECT_TRUE(privatizable(r.loop, name)) << cl.id << "/" << name;
  }
}

}  // namespace
}  // namespace panorama
