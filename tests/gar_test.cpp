// Tests for multidimensional regions, guarded array regions, the GAR
// simplifier, and the §4.1 expansion function — including brute-force
// property validation of the whole algebra.
#include <gtest/gtest.h>

#include <random>

#include "panorama/region/gar.h"

namespace panorama {
namespace {

using ElementSet = std::set<std::vector<std::int64_t>>;

class GarTest : public ::testing::Test {
 protected:
  SymbolTable tab;
  ArrayTable arrays;
  VarId i = tab.intern("i");
  VarId n = tab.intern("n");
  VarId m = tab.intern("m");
  SymExpr I = SymExpr::variable(i);
  SymExpr N = SymExpr::variable(n);
  SymExpr M = SymExpr::variable(m);
  SymExpr one = SymExpr::constant(1);
  ArrayId A = arrays.intern("a", {SymRange{one, SymExpr::constant(100), one}});
  ArrayId B2 = arrays.intern("b", {SymRange{one, SymExpr::constant(100), one},
                                   SymRange{one, SymExpr::constant(100), one}});
  CmpCtx ctx;

  static SymRange mk(std::int64_t lo, std::int64_t up, std::int64_t step = 1) {
    return SymRange{SymExpr::constant(lo), SymExpr::constant(up), SymExpr::constant(step)};
  }
  Region reg1(SymRange r) const { return Region{A, {std::move(r)}}; }
  Region reg2(SymRange r1, SymRange r2) const { return Region{B2, {std::move(r1), std::move(r2)}}; }

  static ElementSet evalList(const GarList& list, ArrayId array, const Binding& b,
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
};

TEST_F(GarTest, MakeAddsValidityConditions) {
  // [True, A(n : m)] must carry n <= m in its guard (§3).
  Gar g = Gar::make(Pred::makeTrue(), reg1(SymRange{N, M, one}));
  EXPECT_EQ(g.guard().evaluate({{n, 3}, {m, 5}}), true);
  EXPECT_EQ(g.guard().evaluate({{n, 6}, {m, 5}}), false);
}

TEST_F(GarTest, EmptyAndOmega) {
  Gar dead = Gar::make(Pred::makeFalse(), reg1(mk(1, 5)));
  EXPECT_TRUE(dead.isEmpty());
  GarList list = GarList::single(dead);
  EXPECT_TRUE(list.empty());  // empty GARs never enter a list
  Gar omega = Gar::omega(A, 1);
  EXPECT_TRUE(omega.isOmega());
  EXPECT_FALSE(omega.isExact());
  EXPECT_FALSE(omega.enumerate({}).has_value());
}

TEST_F(GarTest, PaperUnionExample) {
  // §3's motivating pair: T1 = [a <= b, A(a:b)], T2 = [b <= c, A(b:c)].
  VarId a = tab.intern("pa");
  VarId b = tab.intern("pb");
  VarId c = tab.intern("pc");
  SymExpr ea = SymExpr::variable(a);
  SymExpr eb = SymExpr::variable(b);
  SymExpr ec = SymExpr::variable(c);
  GarList t1 = GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange{ea, eb, one})));
  GarList t2 = GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange{eb, ec, one})));
  GarList u = garUnion(t1, t2, ctx, &arrays);
  // Check set semantics over assorted orderings of a, b, c.
  for (std::int64_t va : {1, 5}) {
    for (std::int64_t vb : {2, 7}) {
      for (std::int64_t vc : {4, 9}) {
        Binding bnd{{a, va}, {b, vb}, {c, vc}};
        ElementSet want;
        for (std::int64_t x = va; x <= vb; ++x) want.insert({x});
        for (std::int64_t x = vb; x <= vc; ++x) want.insert({x});
        EXPECT_EQ(evalList(u, A, bnd), want) << va << "," << vb << "," << vc;
      }
    }
  }
}

TEST_F(GarTest, UnionMergesSameRegionGuards) {
  Pred p = Pred::atom(Atom::le(N, SymExpr::constant(4)));
  Pred q = Pred::atom(Atom::gt(N, SymExpr::constant(4)));
  GarList t1 = GarList::single(Gar::make(p, reg1(mk(1, 9))));
  GarList t2 = GarList::single(Gar::make(q, reg1(mk(1, 9))));
  GarList u = garUnion(t1, t2, ctx, &arrays);
  // p ∨ q is a tautology: one member with guard True.
  ASSERT_EQ(u.size(), 1u);
  EXPECT_TRUE(u.gars()[0].guard().isTrue());
}

TEST_F(GarTest, UnionMergesAdjacentRegions) {
  GarList t1 = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 5))));
  GarList t2 = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(6, 9))));
  GarList u = garUnion(t1, t2, ctx, &arrays);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(evalList(u, A, {}).size(), 9u);
}

TEST_F(GarTest, UnionAbsorbsOmegaUnderWholeArray) {
  // §5.3: MOD1 ∪ Ω = MOD1 when MOD1 covers the whole array.
  GarList whole = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 100))));
  GarList withOmega = garUnion(whole, GarList::single(Gar::omega(A, 1)), ctx, &arrays);
  ASSERT_EQ(withOmega.size(), 1u);
  EXPECT_TRUE(withOmega.gars()[0].isExact());
}

TEST_F(GarTest, UnionKeepsOmegaWithoutFullCover) {
  GarList part = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 50))));
  GarList u = garUnion(part, GarList::single(Gar::omega(A, 1)), ctx, &arrays);
  EXPECT_EQ(u.size(), 2u);
}

TEST_F(GarTest, IntersectConjoinsGuards) {
  Pred p = Pred::atom(Atom::le(N, SymExpr::constant(0)));
  GarList t1 = GarList::single(Gar::make(p, reg1(mk(1, 10))));
  GarList t2 = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(5, 20))));
  GarList inter = garIntersect(t1, t2, ctx);
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(evalList(inter, A, {{n, 0}}), (ElementSet{{5}, {6}, {7}, {8}, {9}, {10}}));
  EXPECT_TRUE(evalList(inter, A, {{n, 1}}).empty());
}

TEST_F(GarTest, IntersectContradictoryGuardsIsEmpty) {
  Pred p = Pred::atom(Atom::le(N, SymExpr::constant(0)));
  Pred np = Pred::atom(Atom::gt(N, SymExpr::constant(0)));
  GarList t1 = GarList::single(Gar::make(p, reg1(mk(1, 10))));
  GarList t2 = GarList::single(Gar::make(np, reg1(mk(1, 10))));
  EXPECT_TRUE(garIntersect(t1, t2, ctx).empty());
  EXPECT_EQ(garIntersectionEmpty(t1, t2, ctx), Truth::True);
}

TEST_F(GarTest, SubtractHonorsGuardComplement) {
  // T1 − T2 keeps [P1 ∧ ¬P2, R1]: elements survive where the kill was
  // conditional and the condition fails.
  Pred p = Pred::atom(Atom::le(N, SymExpr::constant(0)));
  GarList use = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 10))));
  GarList mod = GarList::single(Gar::make(p, reg1(mk(1, 10))));
  GarList diff = garSubtract(use, mod, ctx);
  EXPECT_TRUE(evalList(diff, A, {{n, 0}}).empty());          // killed: n <= 0
  EXPECT_EQ(evalList(diff, A, {{n, 3}}).size(), 10u);        // survives: n > 0
}

TEST_F(GarTest, SubtractUnknownRefusesToKill) {
  GarList use = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 10))));
  GarList mod = GarList::single(Gar::omega(A, 1));
  GarList diff = garSubtract(use, mod, ctx);
  bool undecided = false;
  evalList(diff, A, {}, &undecided);
  // Every element must survive somewhere — possibly behind Δ.
  EXPECT_TRUE(undecided || evalList(diff, A, {}).size() == 10u);
  EXPECT_FALSE(diff.empty());
}

TEST_F(GarTest, TwoDimensionalSubtractPaperExample) {
  // (1:100, 1:100) − (20:30, a:30) from §3.1, checked semantically.
  VarId a = tab.intern("qa");
  SymExpr ea = SymExpr::variable(a);
  GarList r1 = GarList::single(Gar::make(Pred::makeTrue(), reg2(mk(1, 100), mk(1, 100))));
  GarList r2 = GarList::single(
      Gar::make(Pred::makeTrue(), reg2(mk(20, 30), SymRange{ea, SymExpr::constant(30), one})));
  GarList diff = garSubtract(r1, r2, ctx);
  for (std::int64_t va : {-3, 1, 15, 31}) {
    Binding bnd{{a, va}};
    ElementSet got = evalList(diff, B2, bnd);
    std::size_t removedRows = va <= 30 ? (va < 1 ? 30 : 30 - va + 1) : 0;
    EXPECT_EQ(got.size(), 10000u - 11u * removedRows) << "a = " << va;
  }
}

TEST_F(GarTest, IntersectionEmptinessUnderGuardContext) {
  // [x <= SIZE ∧ 1 <= m, A(1:m)] ∩ [x > SIZE, A(1:m)] = ∅ — the Figure 1(c)
  // interprocedural pattern.
  VarId x = tab.intern("x");
  VarId size = tab.intern("size");
  SymExpr X = SymExpr::variable(x);
  SymExpr S = SymExpr::variable(size);
  Pred pin = Pred::atom(Atom::le(X, S));
  Pred pout = Pred::atom(Atom::gt(X, S));
  GarList mod = GarList::single(Gar::make(pin, reg1(SymRange{one, M, one})));
  GarList ue = GarList::single(Gar::make(pout, reg1(SymRange{one, M, one})));
  EXPECT_EQ(garIntersectionEmpty(mod, ue, ctx), Truth::True);
}

TEST_F(GarTest, WithGuardRestricts) {
  GarList list = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 5))));
  Pred cond = Pred::atom(Atom::logicalVar(tab.intern("flag"), true));
  GarList guarded = list.withGuard(cond);
  ASSERT_EQ(guarded.size(), 1u);
  EXPECT_EQ(evalList(guarded, A, {{tab.intern("flag"), 1}}).size(), 5u);
  EXPECT_TRUE(evalList(guarded, A, {{tab.intern("flag"), 0}}).empty());
}

// --------------------------- expansion (§4.1) ------------------------------

class ExpansionTest : public GarTest {
 protected:
  LoopBounds loop(std::int64_t lo, std::int64_t up, std::int64_t step = 1) {
    return LoopBounds{i, SymExpr::constant(lo), SymExpr::constant(up),
                      SymExpr::constant(step)};
  }
};

TEST_F(ExpansionTest, IndexFreeGarPassesThrough) {
  GarList list = GarList::single(Gar::make(Pred::makeTrue(), reg1(mk(1, 5))));
  GarList e = expandByIndex(list, loop(1, 10), ctx);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(evalList(e, A, {}).size(), 5u);
}

TEST_F(ExpansionTest, MovingPointBecomesRange) {
  // MOD_j = [True, B(j)] over j = 1..mm expands to B(1:mm) — the paper's
  // subroutine `in` example.
  GarList list = GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, LoopBounds{i, one, M, one}, ctx);
  ASSERT_EQ(e.size(), 1u);
  const Gar& g = e.gars()[0];
  EXPECT_TRUE(g.isExact());
  EXPECT_EQ(evalList(e, A, {{m, 7}}), (ElementSet{{1}, {2}, {3}, {4}, {5}, {6}, {7}}));
  EXPECT_TRUE(evalList(e, A, {{m, 0}}).empty());  // zero-trip loop
}

TEST_F(ExpansionTest, MovingPointWithCoefficient) {
  // A(2i + 1) over i = 0..4 is {1, 3, 5, 7, 9}: a strided range.
  GarList list =
      GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange::point(I.mulConst(2) + 1))));
  GarList e = expandByIndex(list, loop(0, 4), ctx);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(evalList(e, A, {}), (ElementSet{{1}, {3}, {5}, {7}, {9}}));
  EXPECT_TRUE(e.gars()[0].isExact());
}

TEST_F(ExpansionTest, DescendingPoint) {
  // A(10 - i) over i = 1..4 is {6, 7, 8, 9}.
  GarList list = GarList::single(
      Gar::make(Pred::makeTrue(), reg1(SymRange::point(SymExpr::constant(10) - I))));
  GarList e = expandByIndex(list, loop(1, 4), ctx);
  EXPECT_EQ(evalList(e, A, {}), (ElementSet{{6}, {7}, {8}, {9}}));
}

TEST_F(ExpansionTest, NegativeStepLoop) {
  // DO i = 10, 2, -3 visits {10, 7, 4}; A(i) expands to exactly that.
  GarList list = GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, loop(10, 2, -3), ctx);
  EXPECT_EQ(evalList(e, A, {}), (ElementSet{{4}, {7}, {10}}));
}

TEST_F(ExpansionTest, PaperWorkedExample) {
  // §4.1: T = [c <= i+1 <= d, A(1:i)], loop a <= i <= b. The expansion is
  // [True, A(1 : min(b, d-1))] with the max/min compiled to cases. We verify
  // semantically against brute force.
  VarId a = tab.intern("ea");
  VarId b = tab.intern("eb");
  VarId c = tab.intern("ec");
  VarId d = tab.intern("ed");
  Pred guard = Pred::atom(Atom::le(SymExpr::variable(c), I + 1)) &&
               Pred::atom(Atom::le(I + 1, SymExpr::variable(d)));
  GarList list =
      GarList::single(Gar::make(guard, reg1(SymRange{one, I, one})));
  GarList e = expandByIndex(
      list, LoopBounds{i, SymExpr::variable(a), SymExpr::variable(b), one}, ctx);
  for (std::int64_t va : {1, 3}) {
    for (std::int64_t vb : {5, 8}) {
      for (std::int64_t vc : {0, 4}) {
        for (std::int64_t vd : {3, 9}) {
          Binding bnd{{a, va}, {b, vb}, {c, vc}, {d, vd}};
          ElementSet want;
          for (std::int64_t vi = va; vi <= vb; ++vi) {
            if (!(vc <= vi + 1 && vi + 1 <= vd)) continue;
            for (std::int64_t x = 1; x <= vi; ++x) want.insert({x});
          }
          bool und = false;
          ElementSet got = evalList(e, A, bnd, &und);
          EXPECT_FALSE(und);
          EXPECT_EQ(got, want) << va << " " << vb << " " << vc << " " << vd;
        }
      }
    }
  }
}

TEST_F(ExpansionTest, SweepingIntervalContiguous) {
  // A(i : i+2) over i = 1..n is A(1 : n+2): overlapping sweep.
  GarList list =
      GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange{I, I + 2, one})));
  GarList e = expandByIndex(list, LoopBounds{i, one, N, one}, ctx);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_TRUE(e.gars()[0].isExact());
  EXPECT_EQ(evalList(e, A, {{n, 4}}).size(), 6u);
}

TEST_F(ExpansionTest, SweepingIntervalWithGapGoesOmega) {
  // A(3i : 3i+1) over i = 1..n leaves holes: must degrade, not hull.
  GarList list = GarList::single(
      Gar::make(Pred::makeTrue(), reg1(SymRange{I.mulConst(3), I.mulConst(3) + 1, one})));
  GarList e = expandByIndex(list, LoopBounds{i, one, N, one}, ctx);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_FALSE(e.gars()[0].isExact());
}

TEST_F(ExpansionTest, IndexInTwoDimensionsGoesOmega) {
  // B(i, i) over i: §4.1 marks both dimensions Ω (the ψ extension would keep
  // the diagonal; the base analysis must not pretend it is a rectangle).
  GarList list = GarList::single(
      Gar::make(Pred::makeTrue(), reg2(SymRange::point(I), SymRange::point(I))));
  GarList e = expandByIndex(list, loop(1, 10), ctx);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_TRUE(e.gars()[0].region().hasUnknownDim());
}

TEST_F(ExpansionTest, GuardEqualityPinsIteration) {
  // [i == 5, A(i)] over i = 1..10 expands to exactly A(5).
  GarList list = GarList::single(
      Gar::make(Pred::atom(Atom::eq(I, SymExpr::constant(5))), reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, loop(1, 10), ctx);
  EXPECT_EQ(evalList(e, A, {}), (ElementSet{{5}}));
}

TEST_F(ExpansionTest, GuardBoundsNarrowIteration) {
  // [i <= n, A(i)] over i = 1..10: expansion caps at min(10, n) by cases.
  GarList list = GarList::single(
      Gar::make(Pred::atom(Atom::le(I, N)), reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, loop(1, 10), ctx);
  for (std::int64_t vn : {-2, 3, 10, 40}) {
    ElementSet want;
    for (std::int64_t vi = 1; vi <= std::min<std::int64_t>(10, vn); ++vi) want.insert({vi});
    bool und = false;
    EXPECT_EQ(evalList(e, A, {{n, vn}}, &und), want) << "n = " << vn;
    EXPECT_FALSE(und);
  }
}

TEST_F(ExpansionTest, DisjunctiveGuardSplitsExactly) {
  // [i <= 3 ∨ i >= 7, A(i)] over i = 1..10: the disjunction splits into
  // separate GARs ([C1 ∨ C2, R] = [C1, R] ∪ [C2, R]) and expands exactly.
  Pred guard = Pred::atom(Atom::le(I, SymExpr::constant(3))) ||
               Pred::atom(Atom::ge(I, SymExpr::constant(7)));
  GarList list = GarList::single(Gar::make(guard, reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, loop(1, 10), ctx);
  EXPECT_EQ(evalList(e, A, {}), (ElementSet{{1}, {2}, {3}, {7}, {8}, {9}, {10}}));
  for (const Gar& g : e.gars()) EXPECT_TRUE(g.isExact());
}

TEST_F(ExpansionTest, DisequalityGuardSplitsExactly) {
  // [i /= 5, A(i)] over i = 1..10 expands to everything but A(5).
  GarList list = GarList::single(
      Gar::make(Pred::atom(Atom::ne(I, SymExpr::constant(5))), reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, loop(1, 10), ctx);
  EXPECT_EQ(evalList(e, A, {}),
            (ElementSet{{1}, {2}, {3}, {4}, {6}, {7}, {8}, {9}, {10}}));
}

TEST_F(ExpansionTest, SteppedLoopPoint) {
  // DO i = 1, 9, 2: A(i) = {1,3,5,7,9}.
  GarList list = GarList::single(Gar::make(Pred::makeTrue(), reg1(SymRange::point(I))));
  GarList e = expandByIndex(list, loop(1, 9, 2), ctx);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_TRUE(e.gars()[0].isExact());
  EXPECT_EQ(evalList(e, A, {}), (ElementSet{{1}, {3}, {5}, {7}, {9}}));
}

// ------------------------- ψ dimension symbols (§5.3) ----------------------

class PsiRegionTest : public GarTest {
 protected:
  VarId psi1 = tab.intern("psi$1");
  VarId psi2 = tab.intern("psi$2");
  SymExpr P1 = SymExpr::variable(psi1);
  SymExpr P2 = SymExpr::variable(psi2);
  PsiDims psi{psi1, psi2};

  void SetUp() override {
    // ψ is per-context now (no process-global slot): list operations pick
    // it up from the comparison context, direct Gar::make calls take it as
    // an argument.
    ctx = CmpCtx(ConstraintSet{}, psi);
  }
};

TEST_F(PsiRegionTest, DiagonalRegion) {
  // The paper's §5.3 example: A(i,i), i = 1..n  ==  [ψ1 = ψ2, A(1:n, 1:n)].
  Gar diag = Gar::make(Pred::atom(Atom::eq(P1, P2)),
                       reg2(SymRange{one, N, one}, SymRange{one, N, one}), psi);
  // ψ-range atoms were attached (coordinates live inside the region box).
  EXPECT_TRUE(diag.guard().containsVar(psi1));
  EXPECT_TRUE(diag.guard().containsVar(psi2));

  // Intersecting the diagonal with a row clips to one element's worth.
  Gar row = Gar::make(Pred::makeTrue(),
                      reg2(SymRange::point(SymExpr::constant(4)), SymRange{one, N, one}), psi);
  GarList inter = garIntersect(GarList::single(diag), GarList::single(row), ctx);
  ASSERT_FALSE(inter.empty());
  // Pointwise semantics: the result's guard forces ψ1 = ψ2 and ψ1 = 4 (from
  // the region), so only (4,4) satisfies it. Checking symbolically: the
  // guard with ψ2 != 4 must be contradictory.
  for (const Gar& g : inter.gars()) {
    Pred offDiag = g.guard() && Pred::atom(Atom::eq(P1, SymExpr::constant(4))) &&
                   Pred::atom(Atom::ne(P2, SymExpr::constant(4)));
    EXPECT_EQ(offDiag.provablyFalse(), Truth::True);
  }
}

TEST_F(PsiRegionTest, UpperTriangleSubtraction) {
  // [ψ1 <= ψ2, A(1:10, 1:10)] (upper triangle incl. diagonal) minus the
  // whole square leaves nothing; minus the strict lower triangle leaves the
  // upper triangle intact (no kill across complementary ψ guards).
  Gar upper = Gar::make(Pred::atom(Atom::le(P1, P2)), reg2(mk(1, 10), mk(1, 10)), psi);
  Gar square = Gar::make(Pred::makeTrue(), reg2(mk(1, 10), mk(1, 10)), psi);
  GarList gone = garSubtract(GarList::single(upper), GarList::single(square), ctx);
  EXPECT_TRUE(gone.empty());

  Gar lower = Gar::make(Pred::atom(Atom::gt(P1, P2)), reg2(mk(1, 10), mk(1, 10)), psi);
  GarList kept = garSubtract(GarList::single(upper), GarList::single(lower), ctx);
  ASSERT_FALSE(kept.empty());
  // The diagonal point (3,3) must still be covered: guard with ψ1=ψ2=3
  // satisfiable in some piece.
  bool covered = false;
  for (const Gar& g : kept.gars()) {
    Pred at = g.guard() && Pred::atom(Atom::eq(P1, SymExpr::constant(3))) &&
              Pred::atom(Atom::eq(P2, SymExpr::constant(3)));
    if (at.provablyFalse() != Truth::True) covered = true;
  }
  EXPECT_TRUE(covered);
}

TEST_F(PsiRegionTest, PsiBoundsEnableEmptinessProofs) {
  // [ψ1 >= 50, A(1:10)] is empty: the attached region bound ψ1 <= 10
  // contradicts the user guard.
  Gar g = Gar::make(Pred::atom(Atom::ge(P1, SymExpr::constant(50))), reg1(mk(1, 10)), psi);
  EXPECT_TRUE(g.isEmpty());
}

// ---------------------------------------------------------------------------
// Property tests: the GAR algebra against brute-force element sets, and
// expansion against brute-force loop unrolling.
// ---------------------------------------------------------------------------

class GarPropertyTest : public ::testing::TestWithParam<unsigned> {
 protected:
  SymbolTable tab;
  ArrayTable arrays;
  VarId a = tab.intern("a");
  VarId b = tab.intern("b");
  ArrayId arr = arrays.intern("w", {SymRange{SymExpr::constant(1), SymExpr::constant(60),
                                             SymExpr::constant(1)}});

  SymExpr randomBound(std::mt19937& rng) {
    std::uniform_int_distribution<int> c(-8, 16);
    std::uniform_int_distribution<int> kind(0, 3);
    switch (kind(rng)) {
      case 0: return SymExpr::variable(a) + c(rng);
      case 1: return SymExpr::variable(b) + c(rng);
      default: return SymExpr::constant(c(rng));
    }
  }

  Gar randomGar(std::mt19937& rng) {
    std::uniform_int_distribution<int> kind(0, 4);
    std::uniform_int_distribution<int> cv(-4, 8);
    SymExpr lo = randomBound(rng);
    SymRange r = kind(rng) == 0 ? SymRange::point(lo)
                                : SymRange{lo, randomBound(rng),
                                           SymExpr::constant(kind(rng) == 1 ? 2 : 1)};
    Pred g = Pred::makeTrue();
    if (kind(rng) < 2)
      g = Pred::atom(Atom::le(SymExpr::variable(kind(rng) ? a : b), SymExpr::constant(cv(rng))));
    return Gar::make(std::move(g), Region{arr, {std::move(r)}});
  }

  static ElementSet evalList(const GarList& list, ArrayId array, const Binding& bnd,
                             bool* und) {
    ElementSet out;
    for (const Gar& g : list.gars()) {
      if (g.array() != array) continue;
      auto e = g.enumerate(bnd);
      if (!e) {
        *und = true;
        continue;
      }
      out.insert(e->begin(), e->end());
    }
    return out;
  }
};

TEST_P(GarPropertyTest, AlgebraMatchesBruteForce) {
  std::mt19937 rng(GetParam() * 52901u + 7u);
  std::uniform_int_distribution<int> val(-4, 12);
  CmpCtx ctx;
  int exactChecks = 0;
  for (int iter = 0; iter < 150; ++iter) {
    GarList x = GarList::single(randomGar(rng));
    x.append(GarList::single(randomGar(rng)));
    GarList y = GarList::single(randomGar(rng));

    GarList u = garUnion(x, y, ctx, &arrays);
    GarList inter = garIntersect(x, y, ctx);
    GarList diff = garSubtract(x, y, ctx);

    for (int pt = 0; pt < 3; ++pt) {
      Binding bnd{{a, val(rng)}, {b, val(rng)}};
      bool undX = false;
      bool undY = false;
      ElementSet sx = evalList(x, arr, bnd, &undX);
      ElementSet sy = evalList(y, arr, bnd, &undY);
      if (undX || undY) continue;
      ElementSet wantU = sx;
      wantU.insert(sy.begin(), sy.end());
      ElementSet wantI;
      ElementSet wantD;
      for (const auto& e : sx) {
        if (sy.count(e))
          wantI.insert(e);
        else
          wantD.insert(e);
      }
      bool und = false;
      ElementSet gotU = evalList(u, arr, bnd, &und);
      if (!und) {
        EXPECT_EQ(gotU, wantU);
        ++exactChecks;
      } else {
        for (const auto& e : wantU) EXPECT_TRUE(gotU.count(e) || und);
      }
      und = false;
      ElementSet gotI = evalList(inter, arr, bnd, &und);
      if (!und) {
        EXPECT_EQ(gotI, wantI);
      }
      und = false;
      ElementSet gotD = evalList(diff, arr, bnd, &und);
      if (!und) {
        EXPECT_EQ(gotD, wantD);
      } else {
        // Over-approximation: nothing from the true difference may vanish.
        for (const auto& e : wantD) EXPECT_TRUE(gotD.count(e) || und);
      }
    }
  }
  EXPECT_GT(exactChecks, 200);
}

TEST_P(GarPropertyTest, EmptinessOracleIsSound) {
  std::mt19937 rng(GetParam() * 7577u + 23u);
  std::uniform_int_distribution<int> val(-4, 12);
  CmpCtx ctx;
  for (int iter = 0; iter < 200; ++iter) {
    GarList x = GarList::single(randomGar(rng));
    GarList y = GarList::single(randomGar(rng));
    if (garIntersectionEmpty(x, y, ctx) != Truth::True) continue;
    for (int pt = 0; pt < 5; ++pt) {
      Binding bnd{{a, val(rng)}, {b, val(rng)}};
      bool und = false;
      ElementSet sx = evalList(x, arr, bnd, &und);
      ElementSet sy = evalList(y, arr, bnd, &und);
      if (und) continue;
      for (const auto& e : sx) EXPECT_FALSE(sy.count(e)) << "claimed-empty intersection lied";
    }
  }
}

TEST_P(GarPropertyTest, ExpansionMatchesUnrolling) {
  std::mt19937 rng(GetParam() * 3331u + 11u);
  std::uniform_int_distribution<int> val(-3, 9);
  std::uniform_int_distribution<int> coefD(-2, 2);
  std::uniform_int_distribution<int> widthD(0, 3);
  CmpCtx ctx;
  VarId i = tab.intern("idx");
  SymExpr I = SymExpr::variable(i);
  int exact = 0;
  for (int iter = 0; iter < 150; ++iter) {
    // Region dim: affine sweep c*i + base (point or short interval).
    int c = coefD(rng);
    SymExpr lo = I.mulConst(c) + randomBound(rng);
    int w = widthD(rng);
    SymRange dim = w == 0 ? SymRange::point(lo) : SymRange{lo, lo + w, SymExpr::constant(1)};
    // Optional guard bound on i.
    Pred guard = Pred::makeTrue();
    std::uniform_int_distribution<int> gk(0, 2);
    int gkind = gk(rng);
    if (gkind == 1) guard = Pred::atom(Atom::le(I, SymExpr::variable(a)));
    if (gkind == 2) guard = Pred::atom(Atom::ge(I, SymExpr::constant(val(rng))));
    Gar g = Gar::make(guard, Region{arr, {dim}});

    std::uniform_int_distribution<int> loD(-2, 4);
    std::uniform_int_distribution<int> upD(0, 9);
    std::uniform_int_distribution<int> stD(1, 3);
    std::int64_t llo = loD(rng);
    std::int64_t lup = upD(rng);
    std::int64_t lst = stD(rng);
    GarList e = expandByIndex(GarList::single(g),
                              LoopBounds{i, SymExpr::constant(llo), SymExpr::constant(lup),
                                         SymExpr::constant(lst)},
                              ctx);
    for (int pt = 0; pt < 3; ++pt) {
      Binding bnd{{a, val(rng)}, {b, val(rng)}};
      // Brute force: union over unrolled iterations.
      ElementSet want;
      bool skip = false;
      for (std::int64_t vi = llo; vi <= lup; vi += lst) {
        Binding full = bnd;
        full[i] = vi;
        auto gv = g.guard().evaluate(full);
        if (!gv) {
          skip = true;
          break;
        }
        if (!*gv) continue;
        auto elems = g.region().enumerate(full);
        if (!elems) {
          skip = true;
          break;
        }
        want.insert(elems->begin(), elems->end());
      }
      if (skip) continue;
      bool und = false;
      ElementSet got = evalList(e, arr, bnd, &und);
      if (!und) {
        EXPECT_EQ(got, want) << "expansion mismatch, c=" << c << " w=" << w << " loop=["
                             << llo << "," << lup << "," << lst << "]";
        ++exact;
      } else {
        for (const auto& el : want) EXPECT_TRUE(got.count(el) || und);
      }
    }
  }
  EXPECT_GT(exact, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarPropertyTest, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace panorama
