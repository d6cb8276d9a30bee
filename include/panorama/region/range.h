// Range triples (l : u : s) over symbolic expressions and their guarded
// set operations (§3 and §5.1 of the paper).
//
// A range denotes { l, l+s, l+2s, ... } ∩ [l, u] for s > 0. Operations
// return *guarded range lists*: unions of [predicate, range] pairs, because
// max/min boundaries are compiled into explicit inequalities placed in the
// guards (§3.1). Where the step rules of §5.1 cannot decide, results are
// flagged unknown and the caller degrades the affected dimension to Ω.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "panorama/predicate/predicate.h"
#include "panorama/symbolic/cmp.h"

namespace panorama {

struct SymRange {
  SymExpr lo;
  SymExpr up;
  SymExpr step = SymExpr::constant(1);

  /// A degenerate one-element range (e : e : 1).
  static SymRange point(SymExpr e);
  static SymRange closed(SymExpr lo, SymExpr up) { return {std::move(lo), std::move(up)}; }
  /// The unknown dimension Ω (poisoned bounds).
  static SymRange unknown();

  bool isUnknown() const { return lo.isPoisoned() || up.isPoisoned() || step.isPoisoned(); }
  bool isPoint() const { return !isUnknown() && lo == up; }

  /// The validity condition lo <= up that §3 keeps in the guard.
  Pred validity() const;

  SymRange substituted(VarId v, const SymExpr& r) const;
  SymRange substituted(const std::map<VarId, SymExpr>& r) const;
  bool containsVar(VarId v) const;
  void collectVars(std::vector<VarId>& out) const;

  /// Concrete element enumeration; nullopt when unknown, unbound, a
  /// non-positive step, or more than `maxCount` elements.
  std::optional<std::vector<std::int64_t>> enumerate(const Binding& binding,
                                                     std::size_t maxCount = 1 << 16) const;

  friend bool operator==(const SymRange& a, const SymRange& b) {
    return a.lo == b.lo && a.up == b.up && a.step == b.step;
  }
  std::string str(const SymbolTable& symtab) const;
};

struct GuardedRange {
  Pred guard;
  SymRange range;
};

/// Union semantics; an empty list is the empty set.
using GuardedRangeList = std::vector<GuardedRange>;

/// Result of a range set operation: the guarded pieces plus an `unknown`
/// flag set when §5.1 case 5 (or undecidable alignment) applies and the
/// pieces do not capture the result.
struct RangeOpResult {
  GuardedRangeList pieces;
  bool unknown = false;
};

/// `ctx` extended with the unit constraints of `guard`: guards refine the
/// symbolic comparisons inside region operations (the paper's
/// "disambiguates the symbolic values precisely for set operations").
CmpCtx ctxWith(const CmpCtx& ctx, const Pred& guard);

/// r1 ∩ r2 under hypothesis context `ctx`.
RangeOpResult rangeIntersect(const SymRange& r1, const SymRange& r2, const CmpCtx& ctx);

/// r1 − r2 under `ctx`. When exact subtraction is impossible the result is
/// {pieces = {[Δ, r1]}, unknown = true}: an over-approximation that refuses
/// to kill anything (sound for upward-exposure).
RangeOpResult rangeSubtract(const SymRange& r1, const SymRange& r2, const CmpCtx& ctx);

/// Attempts to merge r1 ∪ r2 into a single range (§5.1: only when overlap or
/// adjacency is provable). nullopt keeps the operands separate — which is
/// always a valid representation of the union.
std::optional<SymRange> rangeUnionPair(const SymRange& r1, const SymRange& r2, const CmpCtx& ctx);

/// Provable containment r1 ⊆ r2 (used by the GAR simplifier).
Truth rangeContains(const SymRange& outer, const SymRange& inner, const CmpCtx& ctx);

/// Provable emptiness of the *intersection*, i.e. r1 and r2 share no element.
Truth rangesDisjoint(const SymRange& r1, const SymRange& r2, const CmpCtx& ctx);

}  // namespace panorama
