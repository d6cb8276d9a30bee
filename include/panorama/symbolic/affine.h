// Affine (degree <= 1) view of symbolic expressions. The constraint engine
// (Fourier-Motzkin) and the Banerjee/GCD dependence tests operate on this
// flattened form rather than on the general sum-of-products.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "panorama/symbolic/expr.h"

namespace panorama {

/// constant + sum(coeffs[k].second * var coeffs[k].first); coeffs sorted by
/// variable id and free of zeros.
struct AffineForm {
  std::vector<std::pair<VarId, std::int64_t>> coeffs;
  std::int64_t constant = 0;
  /// Set when any arithmetic on this form overflowed; consumers must treat
  /// the form as unusable (the constraint engine answers Unknown).
  bool overflow = false;

  bool isConstant() const { return coeffs.empty(); }
  std::int64_t coeffOf(VarId v) const;

  /// Extraction; nullopt when `e` is poisoned or has degree > 1.
  static std::optional<AffineForm> fromExpr(const SymExpr& e);
  /// fromExpr into `out`, reusing its capacity; false (and `out`
  /// unspecified) when `e` is poisoned or has degree > 1.
  static bool fromExprInto(const SymExpr& e, AffineForm& out);
  SymExpr toExpr() const;

  AffineForm scaled(std::int64_t k) const;
  /// scaled(k) into `out`, reusing its capacity.
  void scaledInto(std::int64_t k, AffineForm& out) const;
  friend AffineForm operator+(const AffineForm& a, const AffineForm& b);
  friend AffineForm operator-(const AffineForm& a, const AffineForm& b);

  /// Removes `v`'s coefficient, returning it (0 if absent).
  std::int64_t extractVar(VarId v);

  /// Divides through by gcd of variable coefficients, flooring the constant;
  /// valid for a constraint `form <= 0` over the integers (tightening).
  /// No-op when there are no variables.
  void tightenLE();

  friend bool operator==(const AffineForm&, const AffineForm&) = default;
  std::string str(const SymbolTable& symtab) const { return toExpr().str(symtab); }
};

/// True when the computation overflowed; overflow poisons the result by
/// setting this flag on the engine that produced it (see ConstraintSet).
}  // namespace panorama
