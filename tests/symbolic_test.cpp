// Unit and property tests for the symbolic expression library and the
// bounded Fourier-Motzkin constraint engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "panorama/predicate/fm_incremental.h"
#include "panorama/symbolic/affine.h"
#include "panorama/symbolic/constraint.h"
#include "panorama/symbolic/expr.h"

namespace panorama {
namespace {

class SymbolicTest : public ::testing::Test {
 protected:
  SymbolTable tab;
  VarId x = tab.intern("x");
  VarId y = tab.intern("y");
  VarId z = tab.intern("z");
  SymExpr X = SymExpr::variable(x);
  SymExpr Y = SymExpr::variable(y);
  SymExpr Z = SymExpr::variable(z);
};

TEST_F(SymbolicTest, ZeroAndConstants) {
  SymExpr zero;
  EXPECT_TRUE(zero.isZero());
  EXPECT_TRUE(zero.isConstant());
  EXPECT_EQ(zero.constantValue(), 0);
  SymExpr five = SymExpr::constant(5);
  EXPECT_FALSE(five.isZero());
  EXPECT_EQ(five.constantValue(), 5);
  EXPECT_EQ((five + SymExpr::constant(-5)).constantValue(), 0);
  EXPECT_EQ(SymExpr::constant(0), zero);
}

TEST_F(SymbolicTest, AdditionNormalizesAndCancels) {
  SymExpr e = X + Y + X;  // 2x + y
  EXPECT_EQ(e.affineCoeff(x), 2);
  EXPECT_EQ(e.affineCoeff(y), 1);
  SymExpr cancel = e - X - X - Y;
  EXPECT_TRUE(cancel.isZero());
}

TEST_F(SymbolicTest, MultiplicationDistributes) {
  SymExpr e = (X + 1) * (X - 1);  // x^2 - 1
  EXPECT_EQ(e.degree(), 2);
  EXPECT_EQ(e.constantPart(), -1);
  Binding b{{x, 7}};
  EXPECT_EQ(e.evaluate(b), 48);
}

TEST_F(SymbolicTest, OrderingIsCanonical) {
  SymExpr a = X * Y + Z;
  SymExpr b = Z + Y * X;
  EXPECT_EQ(a, b);
  EXPECT_EQ(SymExpr::compare(a, b), 0);
}

TEST_F(SymbolicTest, StringRendering) {
  EXPECT_EQ((X.mulConst(2) + Y - 3).str(tab), "2*x + y - 3");
  EXPECT_EQ((-X).str(tab), "-x");
  EXPECT_EQ(SymExpr().str(tab), "0");
  EXPECT_EQ((X * X).str(tab), "x*x");
}

TEST_F(SymbolicTest, DivExact) {
  SymExpr e = X.mulConst(4) + SymExpr::constant(8);
  auto half = e.divExact(2);
  ASSERT_TRUE(half.has_value());
  EXPECT_EQ(half->affineCoeff(x), 2);
  EXPECT_EQ(half->constantPart(), 4);
  EXPECT_FALSE(e.divExact(3).has_value());
  EXPECT_FALSE(e.divExact(0).has_value());
}

TEST_F(SymbolicTest, SubstituteSingle) {
  SymExpr e = X * X + Y;
  SymExpr r = e.substitute(x, Z + 1);  // (z+1)^2 + y
  Binding b{{y, 3}, {z, 4}};
  EXPECT_EQ(r.evaluate(b), 28);
  EXPECT_FALSE(r.containsVar(x));
}

TEST_F(SymbolicTest, SubstituteSimultaneous) {
  // x -> y, y -> x must swap, not chain.
  SymExpr e = X - Y;
  std::map<VarId, SymExpr> both{{x, Y}, {y, X}};
  SymExpr r = e.substitute(both);
  EXPECT_EQ(r, Y - X);
}

TEST_F(SymbolicTest, PoisonPropagates) {
  SymExpr p = SymExpr::poisoned();
  EXPECT_TRUE((p + X).isPoisoned());
  EXPECT_TRUE((X * p).isPoisoned());
  EXPECT_TRUE((-p).isPoisoned());
  EXPECT_FALSE(p.evaluate({}).has_value());
  EXPECT_FALSE(p.constantValue().has_value());
}

TEST_F(SymbolicTest, OverflowPoisons) {
  SymExpr big = SymExpr::constant(INT64_MAX);
  EXPECT_TRUE((big + SymExpr::constant(1)).isPoisoned());
  EXPECT_TRUE((big * SymExpr::constant(2)).isPoisoned());
}

TEST_F(SymbolicTest, AffineFormRoundTrip) {
  SymExpr e = X.mulConst(3) - Y.mulConst(2) + 7;
  auto f = AffineForm::fromExpr(e);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->coeffOf(x), 3);
  EXPECT_EQ(f->coeffOf(y), -2);
  EXPECT_EQ(f->constant, 7);
  EXPECT_EQ(f->toExpr(), e);
  EXPECT_FALSE(AffineForm::fromExpr(X * Y).has_value());
}

TEST_F(SymbolicTest, TightenLE) {
  // 2x - 1 <= 0  =>  x <= 0 (integers)
  AffineForm f = *AffineForm::fromExpr(X.mulConst(2) - 1);
  f.tightenLE();
  EXPECT_EQ(f.coeffOf(x), 1);
  EXPECT_EQ(f.constant, 0);
  // 3x + 4 <= 0  =>  x <= -2  =>  x + 2 <= 0
  AffineForm g = *AffineForm::fromExpr(X.mulConst(3) + 4);
  g.tightenLE();
  EXPECT_EQ(g.coeffOf(x), 1);
  EXPECT_EQ(g.constant, 2);
}

TEST_F(SymbolicTest, FmDetectsSimpleContradiction) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - 5));       // x <= 5
  ASSERT_TRUE(cs.addExprLE0(-X + 6));      // x >= 6
  EXPECT_EQ(cs.contradictory(), Truth::True);
}

TEST_F(SymbolicTest, FmFeasibleSystem) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - 5));
  ASSERT_TRUE(cs.addExprLE0(-X + 1));
  EXPECT_EQ(cs.contradictory(), Truth::False);
}

TEST_F(SymbolicTest, FmIntegerTightening) {
  // 1 <= 2x <= 1 has a rational solution (x = 1/2) but no integer one.
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X.mulConst(2) - 1));
  ASSERT_TRUE(cs.addExprLE0(-X.mulConst(2) + 1));
  EXPECT_EQ(cs.contradictory(), Truth::True);
}

TEST_F(SymbolicTest, FmTransitiveChain) {
  // x <= y, y <= z, z <= x - 1 is infeasible.
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - Y));
  ASSERT_TRUE(cs.addExprLE0(Y - Z));
  ASSERT_TRUE(cs.addExprLE0(Z - X + 1));
  EXPECT_EQ(cs.contradictory(), Truth::True);
}

TEST_F(SymbolicTest, FmEqualityLowering) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprEQ0(X - Y));      // x == y
  ASSERT_TRUE(cs.addExprLE0(Y - X + 1));  // y <= x - 1
  EXPECT_EQ(cs.contradictory(), Truth::True);
}

TEST_F(SymbolicTest, DisequalityClash) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprEQ0(X - Y));
  ASSERT_TRUE(cs.addExprNE0(X - Y));
  EXPECT_EQ(cs.contradictory(), Truth::True);
}

TEST_F(SymbolicTest, ImpliesLE0) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - 3));  // x <= 3
  EXPECT_EQ(cs.impliesLE0(X - 5), Truth::True);   // x <= 5 follows
  EXPECT_EQ(cs.impliesLE0(X - 2), Truth::Unknown);  // x <= 2 does not
}

TEST_F(SymbolicTest, ImpliesEQ0) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - Y));
  ASSERT_TRUE(cs.addExprLE0(Y - X));
  EXPECT_EQ(cs.impliesEQ0(X - Y), Truth::True);
}

// The `+ 1` bumps that turn a strict bound into a non-strict one leave the
// step inconclusive when the constant would overflow (UBSan reports each of
// these otherwise).
TEST_F(SymbolicTest, ImpliesLE0AnswersUnknownWhenTheNegationOverflows) {
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - 3));
  // not(x - MAX <= 0) would be -x + MAX + 1 <= 0.
  EXPECT_EQ(cs.impliesLE0(X - INT64_MAX), Truth::Unknown);
  EXPECT_EQ(cs.impliesLE0(X - (INT64_MAX - 1)), Truth::True);
}

TEST_F(SymbolicTest, DisequalityUpperBumpOverflowSkipsTheDisequality) {
  // x >= MAX pins x - MAX != 0's lower half; its upper half -x + MAX + 1
  // would overflow, so the disequality drops out of the decision.
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(SymExpr::constant(INT64_MAX) - X));
  ConstraintSet withoutNe = cs;
  ASSERT_TRUE(cs.addExprNE0(X - INT64_MAX));
  EXPECT_EQ(cs.contradictoryUncached(), withoutNe.contradictoryUncached());
}

TEST_F(SymbolicTest, DisequalityLowerBumpOverflowSkipsTheDisequality) {
  // With the pre-filter off, x + MAX != 0 reaches the disequality loop,
  // whose lower half x + MAX + 1 <= 0 would overflow.
  struct TierOff {
    TierOff() { setQueryTierEnabled(false); }
    ~TierOff() { setQueryTierEnabled(true); }  // the process default
  } tierOff;
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprNE0(X + INT64_MAX));
  EXPECT_EQ(cs.contradictoryUncached(), Truth::False);
}

TEST_F(SymbolicTest, NonAffineRejected) {
  ConstraintSet cs;
  EXPECT_FALSE(cs.addExprLE0(X * Y));
  EXPECT_EQ(cs.impliesLE0(X * Y - 1), Truth::Unknown);
}

TEST_F(SymbolicTest, PrimedIndexIsStablePerVariable) {
  const std::size_t before = tab.size();
  VarId p = tab.primed("i");
  EXPECT_EQ(p, tab.primed("I"));
  EXPECT_NE(p, tab.intern("i"));
  EXPECT_NE(p, tab.primed("j"));
  EXPECT_EQ(tab.name(p), "i'");
  EXPECT_EQ(tab.lookup("i'"), p);
  // i', i and j': repeated requests mint nothing.
  EXPECT_EQ(tab.size(), before + 3);
}

TEST_F(SymbolicTest, SymbolTableCaseInsensitive) {
  EXPECT_EQ(tab.intern("FOO"), tab.intern("foo"));
  EXPECT_EQ(tab.lookup("Foo"), tab.lookup("fOO"));
  EXPECT_FALSE(tab.lookup("missing").has_value());
}

// ---------------------------------------------------------------------------
// Property tests: random expression algebra checked against direct evaluation.
// ---------------------------------------------------------------------------

class SymbolicPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SymbolicPropertyTest, RingAxiomsUnderEvaluation) {
  std::mt19937 rng(GetParam());
  SymbolTable tab;
  std::vector<VarId> vars{tab.intern("a"), tab.intern("b"), tab.intern("c")};
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<std::size_t> pick(0, vars.size() - 1);
  std::uniform_int_distribution<int> val(-10, 10);

  auto randomExpr = [&](int depth) {
    auto self = [&](auto&& rec, int d) -> SymExpr {
      if (d == 0) {
        if (coef(rng) > 0) return SymExpr::variable(vars[pick(rng)]);
        return SymExpr::constant(coef(rng));
      }
      SymExpr l = rec(rec, d - 1);
      SymExpr r = rec(rec, d - 1);
      switch (coef(rng) & 3) {
        case 0: return l + r;
        case 1: return l - r;
        case 2: return l * r;
        default: return -l;
      }
    };
    return self(self, depth);
  };

  for (int iter = 0; iter < 50; ++iter) {
    SymExpr e1 = randomExpr(3);
    SymExpr e2 = randomExpr(3);
    Binding binding;
    for (VarId v : vars) binding[v] = val(rng);

    auto v1 = e1.evaluate(binding);
    auto v2 = e2.evaluate(binding);
    if (!v1 || !v2) continue;  // poisoned by overflow: nothing to check

    auto sum = (e1 + e2).evaluate(binding);
    auto diff = (e1 - e2).evaluate(binding);
    auto prod = (e1 * e2).evaluate(binding);
    if (sum) {
      EXPECT_EQ(*sum, *v1 + *v2);
    }
    if (diff) {
      EXPECT_EQ(*diff, *v1 - *v2);
    }
    if (prod) {
      EXPECT_EQ(*prod, *v1 * *v2);
    }

    // Commutativity and structural canonicalization.
    EXPECT_EQ(e1 + e2, e2 + e1);
    EXPECT_EQ(e1 * e2, e2 * e1);
    EXPECT_TRUE((e1 - e1).isZero());
  }
}

TEST_P(SymbolicPropertyTest, SubstitutionCommutesWithEvaluation) {
  std::mt19937 rng(GetParam() * 7919u + 13u);
  SymbolTable tab;
  VarId a = tab.intern("a");
  VarId b = tab.intern("b");
  std::uniform_int_distribution<int> val(-8, 8);

  for (int iter = 0; iter < 60; ++iter) {
    SymExpr e = SymExpr::variable(a) * SymExpr::variable(a) +
                SymExpr::variable(b).mulConst(val(rng)) + SymExpr::constant(val(rng));
    SymExpr repl = SymExpr::variable(b) + val(rng);
    SymExpr substituted = e.substitute(a, repl);

    Binding binding{{b, val(rng)}};
    auto replVal = repl.evaluate(binding);
    ASSERT_TRUE(replVal.has_value());
    Binding full = binding;
    full[a] = *replVal;

    auto direct = e.evaluate(full);
    auto viaSubst = substituted.evaluate(binding);
    ASSERT_TRUE(direct.has_value());
    ASSERT_TRUE(viaSubst.has_value());
    EXPECT_EQ(*direct, *viaSubst);
  }
}

TEST_P(SymbolicPropertyTest, FmNeverCallsSatisfiableSystemContradictory) {
  // Soundness: generate a system *with* a known integer solution; the engine
  // must never report it infeasible.
  std::mt19937 rng(GetParam() * 104729u + 7u);
  SymbolTable tab;
  std::vector<VarId> vars{tab.intern("p"), tab.intern("q"), tab.intern("r"),
                          tab.intern("s")};
  std::uniform_int_distribution<int> coef(-5, 5);
  std::uniform_int_distribution<int> val(-20, 20);

  for (int iter = 0; iter < 40; ++iter) {
    Binding solution;
    for (VarId v : vars) solution[v] = val(rng);

    ConstraintSet cs;
    for (int c = 0; c < 8; ++c) {
      SymExpr e;
      for (VarId v : vars) e = e + SymExpr::variable(v).mulConst(coef(rng));
      auto value = e.evaluate(solution);
      ASSERT_TRUE(value.has_value());
      // Make `e - slack <= 0` true at the solution point.
      std::uniform_int_distribution<int> slackDist(0, 6);
      ASSERT_TRUE(cs.addExprLE0(e - (*value + slackDist(rng))));
    }
    EXPECT_NE(cs.contradictory(), Truth::True);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicPropertyTest, ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace panorama
