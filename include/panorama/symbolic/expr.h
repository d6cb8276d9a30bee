// Integer symbolic expressions normalized to an ordered sum of products,
// exactly the representation §3.1 of the paper prescribes for its "general
// expression operation library".
//
// An expression is a sum of terms; each term is an integer coefficient times
// a product of variables (a sorted multiset, so x*x*y is {x,x,y}). The term
// list is kept sorted and free of zero coefficients, so structural equality
// is semantic equality of polynomials.
//
// Every distinct expression value is stored exactly once in a process-wide
// hash-consing arena (arena.h); an `ExprRef` is an 8-byte immutable handle
// to that canonical node. Because the §3.1 canonical form makes structural
// equality coincide with semantic equality, pointer equality of handles is
// sound: equal handles <=> equal term lists <=> equal polynomials. Equality
// and hashing are therefore O(1), and the structural hash is computed once,
// when the node is interned.
//
// Arithmetic never fails loudly: any intermediate overflow *poisons* the
// expression. Poisoned expressions propagate through every operation and are
// mapped to the unknown region Ω / unknown guard Δ by the layers above —
// degrading precision, never soundness.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "panorama/symbolic/symbol_table.h"

namespace panorama {

/// One monomial: coef * vars[0] * vars[1] * ... (vars sorted ascending,
/// repetition encodes powers).
struct Term {
  std::int64_t coef = 0;
  std::vector<VarId> vars;

  int degree() const { return static_cast<int>(vars.size()); }
  friend bool operator==(const Term&, const Term&) = default;
};

/// Ordering of monomial keys: by degree first, then lexicographically by
/// variable ids. The constant term (degree 0) sorts first.
bool monomialLess(const std::vector<VarId>& a, const std::vector<VarId>& b);

/// Concrete binding of variables to integers, used by the evaluation hooks of
/// the property tests and the interpreter-backed validation oracle.
using Binding = std::map<VarId, std::int64_t>;

namespace detail {
/// One interned expression value. Nodes live in the arena for the lifetime
/// of the process, are never mutated after construction, and their addresses
/// are stable — an ExprRef is just a pointer to one of these.
struct ExprNode {
  std::vector<Term> terms;  // canonical: sorted, merged, no zero coefficients
  bool poisoned = false;
  std::size_t hash = 0;    // structural hash, cached at interning time
  std::uint64_t id = 0;    // dense arena key; the shard index is in the low bits
};
}  // namespace detail

class ExprRef {
 public:
  /// The zero expression.
  ExprRef();

  static ExprRef constant(std::int64_t c);
  static ExprRef variable(VarId v);
  /// The canonical poisoned expression (unknown value).
  static ExprRef poisoned();

  bool isPoisoned() const { return node_->poisoned; }
  bool isZero() const { return !node_->poisoned && node_->terms.empty(); }
  bool isConstant() const {
    return !node_->poisoned && node_->terms.size() <= 1 &&
           (node_->terms.empty() || node_->terms[0].vars.empty());
  }
  /// Constant value when `isConstant()`; nullopt otherwise (incl. poisoned).
  std::optional<std::int64_t> constantValue() const;

  const std::vector<Term>& terms() const { return node_->terms; }
  /// Highest total degree of any term; 0 for constants and for zero.
  int degree() const;
  std::size_t termCount() const { return node_->terms.size(); }

  bool containsVar(VarId v) const;
  /// Appends every distinct variable (sorted, deduplicated) to `out`.
  void collectVars(std::vector<VarId>& out) const;

  /// True when the polynomial is affine (degree <= 1) and not poisoned.
  bool isAffine() const { return !node_->poisoned && degree() <= 1; }
  /// Coefficient of `v` in an affine expression; 0 if absent.
  std::int64_t affineCoeff(VarId v) const;
  /// Constant part of the expression (the degree-0 term's coefficient).
  std::int64_t constantPart() const;

  ExprRef operator-() const;
  friend ExprRef operator+(const ExprRef& a, const ExprRef& b);
  friend ExprRef operator-(const ExprRef& a, const ExprRef& b);
  friend ExprRef operator*(const ExprRef& a, const ExprRef& b);
  ExprRef mulConst(std::int64_t k) const;
  ExprRef addConst(std::int64_t k) const { return *this + constant(k); }

  /// Exact division by a non-zero integer constant: succeeds only when every
  /// coefficient is divisible (the paper's library supports division by an
  /// integer constant divisor).
  std::optional<ExprRef> divExact(std::int64_t k) const;

  /// GCD of all coefficients (0 for the zero expression).
  std::int64_t coeffGcd() const;

  /// Replaces every occurrence of `v` by `replacement`. Powers expand via
  /// repeated multiplication. Poison propagates. Results are memoized at the
  /// node level (pure function of two interned handles, so entries never go
  /// stale); the memo is gated by QueryCache::global()'s capacity.
  ExprRef substitute(VarId v, const ExprRef& replacement) const;
  ExprRef substitute(const std::map<VarId, ExprRef>& replacements) const;

  /// Evaluates under a complete binding; nullopt when poisoned, a variable is
  /// unbound, or arithmetic overflows.
  std::optional<std::int64_t> evaluate(const Binding& binding) const;

  /// Total structural order (used to keep predicate atoms canonical).
  static int compare(const ExprRef& a, const ExprRef& b);
  /// Hash-consing makes equality a pointer compare: one node per value.
  friend bool operator==(const ExprRef& a, const ExprRef& b) { return a.node_ == b.node_; }

  std::string str(const SymbolTable& symtab) const;
  /// The structural hash, cached on the node at interning time.
  std::size_t hashValue() const { return node_->hash; }
  /// Dense 64-bit arena key; id equality <=> structural equality.
  std::uint64_t id() const { return node_->id; }

 private:
  friend ExprRef internExpr(std::span<const Term> terms, bool poisoned);
  explicit ExprRef(const detail::ExprNode* node) : node_(node) {}

  const detail::ExprNode* node_;
};

/// The paper-facing name: §3.1 calls these symbolic expressions; since the
/// hash-consing refactor the value type *is* the 8-byte handle.
using SymExpr = ExprRef;

/// Convenience builders used pervasively by tests and the frontend lowering.
ExprRef operator+(const ExprRef& a, std::int64_t c);
ExprRef operator-(const ExprRef& a, std::int64_t c);

}  // namespace panorama
