// A conjunction of linear constraints plus a bounded decision procedure.
//
// The predicate simplifier (§5.2) resolves most queries pairwise; when that
// is inconclusive, guards and range-validity conditions are flattened into a
// ConstraintSet and decided by Fourier-Motzkin elimination with integer
// tightening. The engine is deliberately budgeted: blowing the budget yields
// Truth::Unknown, which the region layer treats conservatively.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "panorama/support/diagnostics.h"
#include "panorama/symbolic/affine.h"

namespace panorama {

enum class ConstraintKind : std::uint8_t {
  LE0,  ///< form <= 0
  EQ0,  ///< form == 0
  NE0,  ///< form != 0
};

struct LinearConstraint {
  AffineForm form;
  ConstraintKind kind = ConstraintKind::LE0;

  friend bool operator==(const LinearConstraint&, const LinearConstraint&) = default;
};

/// Resource limits for the Fourier-Motzkin elimination. A fixed valve, not
/// an analysis option: every ConstraintSet query hands the engine the
/// default-constructed budget. Only the engine's own entry points take one,
/// so their unit tests can reach the Unknown paths with tighter limits.
struct FmBudget {
  std::size_t maxConstraints = 256;
  std::size_t maxVariables = 24;
};

/// Decides the feasibility (over the integers, conservatively) of a
/// conjunction of `form <= 0` inequalities and `form == 0` equalities.
/// NE constraints participate only through syntactic clash detection.
class ConstraintSet {
 public:
  void add(LinearConstraint c) { constraints_.push_back(std::move(c)); }
  /// Adds `e <= 0`; returns false (and records nothing) when `e` is not
  /// affine, in which case the caller must treat the context as weaker.
  bool addExprLE0(const SymExpr& e);
  bool addExprEQ0(const SymExpr& e);
  bool addExprNE0(const SymExpr& e);

  bool empty() const { return constraints_.empty(); }
  std::size_t size() const { return constraints_.size(); }
  const std::vector<LinearConstraint>& constraints() const { return constraints_; }

  /// Truth::True  => the conjunction has no rational/integer solution.
  /// Truth::False => a rational solution exists (so not provably empty).
  /// Truth::Unknown => budget exhausted or non-affine data encountered.
  /// Memoized in QueryCache::global() under the exact constraint encoding
  /// plus the query-tier bit; `contradictoryUncached` is the cold path
  /// (exposed for the cache-consistency tests).
  Truth contradictory() const;
  Truth contradictoryUncached() const;

  /// Does this set entail `e <= 0`? True only when (set ∧ e > 0) is
  /// contradictory.
  Truth impliesLE0(const SymExpr& e) const;
  /// Entailment of e == 0 (both e <= 0 and -e <= 0 must be entailed).
  Truth impliesEQ0(const SymExpr& e) const;

 private:
  /// The decision procedure itself; contradictoryUncached wraps it with the
  /// obs query span and provenance reporting.
  Truth contradictoryCold() const;

  std::vector<LinearConstraint> constraints_;
};

/// Core elimination: each AffineForm means `form <= 0`. Equalities must have
/// been pre-lowered to two inequalities by the caller.
/// Returns True (infeasible), False (rationally feasible), or Unknown.
Truth fourierMotzkinInfeasible(std::vector<AffineForm> system, const FmBudget& budget);

}  // namespace panorama
