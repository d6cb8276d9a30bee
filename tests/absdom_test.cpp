// Tests for the abstract-domain query pre-filter (predicate/absdom) and the
// memoizing FM engine (predicate/fm_incremental): interval edge cases,
// overflow saturation, fallback behavior, randomized agreement with the
// classic engine, elimination-cache epoch invalidation, and the differential
// pin that tiered mode reproduces FM-only corpus reports at 1/4/8 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "panorama/analysis/driver.h"
#include "panorama/predicate/absdom.h"
#include "panorama/predicate/fm_incremental.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/affine.h"
#include "panorama/symbolic/constraint.h"
#include "panorama/symbolic/expr.h"

namespace panorama {
namespace {

using absdom::Interval;
using absdom::intervalFixpoint;
using absdom::tryDischarge;

class AbsDomTest : public ::testing::Test {
 protected:
  void TearDown() override { setQueryTierEnabled(true); }  // process default

  SymbolTable tab;
  VarId x = tab.intern("x");
  VarId y = tab.intern("y");
  VarId z = tab.intern("z");
  SymExpr X = SymExpr::variable(x);
  SymExpr Y = SymExpr::variable(y);
  SymExpr Z = SymExpr::variable(z);

  static LinearConstraint le0(const SymExpr& e) {
    return {*AffineForm::fromExpr(e), ConstraintKind::LE0};
  }
  static LinearConstraint eq0(const SymExpr& e) {
    return {*AffineForm::fromExpr(e), ConstraintKind::EQ0};
  }
  static LinearConstraint ne0(const SymExpr& e) {
    return {*AffineForm::fromExpr(e), ConstraintKind::NE0};
  }

  static const Interval* intervalOf(const std::vector<std::pair<VarId, Interval>>& store,
                                    VarId v) {
    for (const auto& [var, itv] : store)
      if (var == v) return &itv;
    return nullptr;
  }
};

// ---------------------------------------------------------------- intervals

TEST_F(AbsDomTest, FixpointDerivesTwoSidedBounds) {
  // 1 <= x <= 7
  auto store = intervalFixpoint({le0(-X + 1), le0(X - 7)});
  const Interval* ix = intervalOf(store, x);
  ASSERT_NE(ix, nullptr);
  EXPECT_FALSE(ix->loInf);
  EXPECT_FALSE(ix->hiInf);
  EXPECT_EQ(ix->lo, 1);
  EXPECT_EQ(ix->hi, 7);
  EXPECT_FALSE(ix->empty());
}

TEST_F(AbsDomTest, FixpointDetectsEmptyInterval) {
  // x >= 2 and x <= 0: empty, so the witness search must decline — the
  // contradiction verdict belongs to the precise engine.
  auto store = intervalFixpoint({le0(-X + 2), le0(X)});
  const Interval* ix = intervalOf(store, x);
  ASSERT_NE(ix, nullptr);
  EXPECT_TRUE(ix->empty());
  EXPECT_EQ(tryDischarge({le0(-X + 2), le0(X)}, FmBudget{}), std::nullopt);
}

TEST_F(AbsDomTest, FixpointPropagatesThroughChains) {
  // x <= y, y <= z, z <= 4, x >= 1: every variable ends two-sided.
  auto store = intervalFixpoint({le0(X - Y), le0(Y - Z), le0(Z - 4), le0(-X + 1)});
  const Interval* iz = intervalOf(store, z);
  ASSERT_NE(iz, nullptr);
  EXPECT_EQ(iz->hi, 4);
  const Interval* ix = intervalOf(store, x);
  ASSERT_NE(ix, nullptr);
  EXPECT_EQ(ix->lo, 1);
  EXPECT_EQ(ix->hi, 4);  // through x <= y <= z <= 4
}

TEST_F(AbsDomTest, IntervalClampSaturatesAtInt64) {
  Interval i = Interval::top();
  EXPECT_TRUE(i.clampHi(INT64_MAX));
  EXPECT_TRUE(i.clampLo(INT64_MIN));
  EXPECT_FALSE(i.empty());
  EXPECT_TRUE(i.contains(0));
  EXPECT_TRUE(i.contains(INT64_MAX));
  // Clamping never widens.
  EXPECT_FALSE(i.clampHi(INT64_MAX));
  EXPECT_TRUE(i.clampHi(5));
  EXPECT_EQ(i.hi, 5);
}

// ---------------------------------------------------------------- discharge

TEST_F(AbsDomTest, DischargesFeasibleSystemWithVerifiedWitness) {
  // 1 <= x <= 7 is satisfiable: False via a witness, same verdict as FM.
  std::vector<LinearConstraint> cs{le0(-X + 1), le0(X - 7)};
  EXPECT_EQ(tryDischarge(cs, FmBudget{}), Truth::False);
}

TEST_F(AbsDomTest, DischargesConstantSystemsAsClassicScreenWould) {
  AffineForm five;
  five.constant = 5;
  AffineForm minusOne;
  minusOne.constant = -1;
  // 5 <= 0 is violated: the all-constant mirror answers True.
  EXPECT_EQ(tryDischarge({{five, ConstraintKind::LE0}}, FmBudget{}), Truth::True);
  // -1 <= 0 holds: False, exactly as the classic empty elimination.
  EXPECT_EQ(tryDischarge({{minusOne, ConstraintKind::LE0}}, FmBudget{}), Truth::False);
  // 0 != 0 is violated.
  AffineForm zero;
  EXPECT_EQ(tryDischarge({{zero, ConstraintKind::NE0}}, FmBudget{}), Truth::True);
}

TEST_F(AbsDomTest, MirrorsOverflowPoisonAsUnknown) {
  AffineForm poisoned = *AffineForm::fromExpr(X);
  poisoned.overflow = true;
  EXPECT_EQ(tryDischarge({{poisoned, ConstraintKind::LE0}}, FmBudget{}), Truth::Unknown);
}

TEST_F(AbsDomTest, SaturatedBoundsStillVerifyExactly) {
  // x >= INT64_MAX - 1 has the representable witness x = INT64_MAX - 1; the
  // 128-bit verification keeps the substitution exact at the range edge.
  std::vector<LinearConstraint> cs{le0(-X + (INT64_MAX - 1))};
  EXPECT_EQ(tryDischarge(cs, FmBudget{}), Truth::False);
}

TEST_F(AbsDomTest, DeclinesWhenNoInt64WitnessExists) {
  // x >= INT64_MAX and x <= -1 shifted beyond range: the derived bound
  // leaves int64, so the store poisons and the search declines rather than
  // claim a verdict.
  std::vector<LinearConstraint> cs{le0(-X + INT64_MAX), le0(-Y + INT64_MAX),
                                   le0(X + Y)};  // x + y <= 0 with x, y huge
  EXPECT_EQ(tryDischarge(cs, FmBudget{}), std::nullopt);
}

TEST_F(AbsDomTest, DisequalityWitnessAvoidsExcludedValue) {
  // x >= 1 and y != 0: candidate 0 for y is excluded by the disequality and
  // the nudged fallback must find y = 1.
  std::vector<LinearConstraint> cs{le0(-X + 1), ne0(Y)};
  EXPECT_EQ(tryDischarge(cs, FmBudget{}), Truth::False);
}

TEST_F(AbsDomTest, GcdCongruenceScreenDeclinesToFm) {
  // 2x == 1 has no integer solution; the congruence screen declines so the
  // classic tightening produces the (True) verdict — never the tier.
  std::vector<LinearConstraint> cs{eq0(X.mulConst(2) - 1)};
  EXPECT_EQ(tryDischarge(cs, FmBudget{}), std::nullopt);
  EXPECT_EQ(fourierMotzkinInfeasible({*AffineForm::fromExpr(X.mulConst(2) - 1),
                                      AffineForm::fromExpr(X.mulConst(2) - 1)->scaled(-1)},
                                     FmBudget{}),
            Truth::True);
}

TEST_F(AbsDomTest, OversizedSystemsDecline) {
  FmBudget tiny;
  tiny.maxConstraints = 1;
  std::vector<LinearConstraint> cs{le0(X - 5), le0(-X + 1)};
  EXPECT_EQ(tryDischarge(cs, tiny), std::nullopt);
}

// --------------------------------------------------- randomized agreement

/// Random small systems: whenever the pre-filter discharges, its verdict
/// must agree with the classic engine — True only when FM proves the
/// contradiction, False only when FM does not (FM never proves True of a
/// system holding a verified integer point).
TEST_F(AbsDomTest, RandomizedPrefilterAgreesWithClassicFm) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> coefDist(-3, 3);
  std::uniform_int_distribution<int> constDist(-10, 10);
  std::uniform_int_distribution<int> countDist(1, 5);
  std::uniform_int_distribution<int> kindDist(0, 9);

  int discharged = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<LinearConstraint> cs;
    const int n = countDist(rng);
    for (int k = 0; k < n; ++k) {
      AffineForm f;
      for (VarId v : {x, y, z}) {
        int c = coefDist(rng);
        if (c != 0) f.coeffs.emplace_back(v, c);
      }
      f.constant = constDist(rng);
      const int kindRoll = kindDist(rng);
      ConstraintKind kind = kindRoll == 0   ? ConstraintKind::EQ0
                            : kindRoll == 1 ? ConstraintKind::NE0
                                            : ConstraintKind::LE0;
      cs.push_back({std::move(f), kind});
    }

    auto verdict = tryDischarge(cs, FmBudget{});
    if (!verdict) continue;
    ++discharged;

    // Classic FM over the same constraint vector (the contradictoryCold
    // lowering: LE stays, EQ splits into both directions, NE joins only
    // through the disequality screens which this generator rarely trips).
    std::vector<AffineForm> system;
    bool anyNe = false;
    for (const LinearConstraint& c : cs) {
      if (c.kind == ConstraintKind::NE0) {
        anyNe = true;
        continue;
      }
      system.push_back(c.form);
      if (c.kind == ConstraintKind::EQ0) system.push_back(c.form.scaled(-1));
    }
    Truth classic = fourierMotzkinInfeasible(std::move(system), FmBudget{});
    if (*verdict == Truth::True) {
      // The mirror only fires on violated constants; NE-free classic runs
      // must reproduce it. (NE-driven True needs the disequality screens.)
      if (!anyNe) {
        EXPECT_EQ(classic, Truth::True) << "trial " << trial;
      }
    } else if (*verdict == Truth::False) {
      // A verified integer point exists, so sound FM cannot prove True.
      EXPECT_NE(classic, Truth::True) << "trial " << trial;
    }
  }
  // The generator must actually exercise the discharge paths.
  EXPECT_GT(discharged, 500);
}

// ----------------------------------------------------- memoized FM engine

TEST_F(AbsDomTest, MemoEngineMatchesClassicOnRandomSystems) {
  std::mt19937 rng(95);
  std::uniform_int_distribution<int> coefDist(-4, 4);
  std::uniform_int_distribution<int> constDist(-20, 20);
  std::uniform_int_distribution<int> countDist(1, 6);
  clearFmEliminationCache();
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<AffineForm> system;
    const int n = countDist(rng);
    for (int k = 0; k < n; ++k) {
      AffineForm f;
      for (VarId v : {x, y, z}) {
        int c = coefDist(rng);
        if (c != 0) f.coeffs.emplace_back(v, c);
      }
      f.constant = constDist(rng);
      system.push_back(std::move(f));
    }
    // Tight budgets exercise the Unknown paths; the memo must reproduce
    // those verdicts too, not only True/False.
    FmBudget budget;
    if (trial % 3 == 0) budget.maxConstraints = 4;
    if (trial % 5 == 0) budget.maxVariables = 2;
    Truth classic = fourierMotzkinInfeasible(system, budget);
    Truth memo = fourierMotzkinInfeasibleMemo(system, budget);
    EXPECT_EQ(memo, classic) << "trial " << trial;
    // And again, now (possibly) served from the cache.
    EXPECT_EQ(fourierMotzkinInfeasibleMemo(system, budget), classic) << "trial " << trial;
  }
}

TEST_F(AbsDomTest, EliminationCacheHitsOnRepeat) {
  clearFmEliminationCache();
  std::vector<AffineForm> system{*AffineForm::fromExpr(X - Y), *AffineForm::fromExpr(Y - Z),
                                 *AffineForm::fromExpr(Z - X + 1)};
  ASSERT_EQ(fourierMotzkinInfeasibleMemo(system, FmBudget{}), Truth::True);
  FmCacheStats cold = fmEliminationStats();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_GT(cold.entries, 0u);

  ASSERT_EQ(fourierMotzkinInfeasibleMemo(system, FmBudget{}), Truth::True);
  FmCacheStats warm = fmEliminationStats();
  EXPECT_EQ(warm.hits, cold.hits + 1) << "repeat query must hit the root handle";
  EXPECT_EQ(warm.misses, cold.misses);
}

TEST_F(AbsDomTest, TierModeBitKeepsQueryCacheVerdictsApart) {
  // The tier may answer False (verified witness) where the classic engine
  // answers Unknown, so ConstraintSet::contradictory keys its memo on the
  // tier mode: flipping the mode must recompute, not reuse.
  QueryCache::global().configure(QueryCache::kDefaultCapacity);  // fresh counters
  ConstraintSet cs;
  ASSERT_TRUE(cs.addExprLE0(X - 5));
  ASSERT_TRUE(cs.addExprLE0(-X + 1));

  setQueryTierEnabled(true);
  Truth tiered = cs.contradictory();
  QueryCache::Stats afterTiered = QueryCache::global().stats();

  setQueryTierEnabled(false);
  Truth classic = cs.contradictory();
  QueryCache::Stats afterClassic = QueryCache::global().stats();

  EXPECT_EQ(tiered, classic);  // identical verdicts on this system...
  EXPECT_EQ(afterClassic.misses, afterTiered.misses + 1)
      << "...but the second mode must take its own cache miss";
}

// ------------------------------------------------------------ differential

/// The ISSUE's hard requirement: byte-identical corpus loop reports with
/// the tier on vs off, at 1, 4, and 8 threads.
TEST_F(AbsDomTest, CorpusReportsAreByteIdenticalAcrossModesAndThreadCounts) {
  auto fingerprint = [](bool prefilter, int threads) {
    setQueryTierEnabled(prefilter);  // TearDown restores the default
    AnalysisOptions options;
    options.numThreads = threads;
    std::string out;
    for (const CorpusRoutineResult& loop : analyzeCorpusParallel(options).loops) {
      out += loop.kernelId;
      out += '|';
      out += loop.report;
      out += loop.provenanceSummary;
      out += '\n';
    }
    return out;
  };
  const std::string want = fingerprint(false, 1);
  ASSERT_FALSE(want.empty());
  for (int threads : {1, 4, 8}) {
    EXPECT_EQ(fingerprint(true, threads), want) << "tiered, threads=" << threads;
    EXPECT_EQ(fingerprint(false, threads), want) << "fm-only, threads=" << threads;
  }
}

}  // namespace
}  // namespace panorama
