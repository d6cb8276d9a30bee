// Symbolic comparison under a hypothesis context. Range and region
// operations constantly ask "is l1 <= l2 here?"; the context carries the
// enclosing guard's unit constraints so comparisons like (a : 100) vs
// (b : 100) with a <= b known resolve without case splits.
#pragma once

#include "panorama/symbolic/constraint.h"

namespace panorama {

/// The ψ dimension symbols of §5.3: distinguished variables denoting "the
/// element's d-th coordinate" inside a GAR's guard, enabling non-rectangular
/// (diagonal, triangular) and element-conditional regions — e.g. the paper's
/// A(i,i) diagonal is [ψ1 = ψ2, A(1:n, 1:n)]. Invalid (and inert) unless
/// activated: the quantified-extension analyzer interns a ψ1 per kernel and
/// threads it here through every comparison context, so concurrent analyses
/// of different kernels each see their own binding (no process-global state,
/// no serialization in the parallel driver).
struct PsiDims {
  VarId dim1;
  VarId dim2;

  bool any() const { return dim1.isValid() || dim2.isValid(); }
  friend bool operator==(const PsiDims&, const PsiDims&) = default;
};

class CmpCtx {
 public:
  CmpCtx() = default;
  explicit CmpCtx(ConstraintSet context, PsiDims psi = {})
      : context_(std::move(context)), psi_(psi) {}

  const ConstraintSet& context() const { return context_; }
  const PsiDims& psi() const { return psi_; }

  /// Same ψ binding, different hypothesis constraints — used when region
  /// operations extend the context with a piece's guard.
  CmpCtx withContext(ConstraintSet cs) const { return CmpCtx(std::move(cs), psi_); }

  /// a <= b ?
  Truth le(const SymExpr& a, const SymExpr& b) const {
    // Constant fast path.
    SymExpr d = a - b;
    if (auto c = d.constantValue()) return *c <= 0 ? Truth::True : Truth::False;
    Truth yes = context_.impliesLE0(d);
    if (yes == Truth::True) return Truth::True;
    // Provably false when the strict opposite is entailed.
    Truth no = context_.impliesLE0(-d + 1);
    if (no == Truth::True) return Truth::False;
    return Truth::Unknown;
  }

  Truth lt(const SymExpr& a, const SymExpr& b) const { return le(a + 1, b); }
  Truth ge(const SymExpr& a, const SymExpr& b) const { return le(b, a); }
  Truth gt(const SymExpr& a, const SymExpr& b) const { return lt(b, a); }

  Truth eq(const SymExpr& a, const SymExpr& b) const {
    SymExpr d = a - b;
    if (auto c = d.constantValue()) return *c == 0 ? Truth::True : Truth::False;
    Truth t = context_.impliesEQ0(d);
    if (t == Truth::True) return Truth::True;
    if (le(a, b) == Truth::False || le(b, a) == Truth::False) return Truth::False;
    return Truth::Unknown;
  }

 private:
  ConstraintSet context_;
  PsiDims psi_;
};

}  // namespace panorama
