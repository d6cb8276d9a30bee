// Atomic predicates of the guard language (§5.2 of the paper):
//
//   * relational expressions `(e op 0)` with op ∈ {<=, =, ≠} over integer
//     symbolic expressions (the paper writes `<`; over the integers e < 0 and
//     e + 1 <= 0 coincide, and <= composes better with Fourier-Motzkin), and
//   * logical-variable tests `(lvar = True/False)`.
//
// The negation of an atom is again a single atom, which keeps CNF negation a
// pure distribution problem.
//
// Atoms are interned: every factory registers its canonical result in the
// atom table (predicate/intern.h) and the atom carries the table key, so
// equality and memo keys are a field read, and the negation is derived once
// per distinct atom and then read back from the table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "panorama/support/diagnostics.h"
#include "panorama/symbolic/constraint.h"
#include "panorama/symbolic/expr.h"

namespace panorama {

namespace detail {
struct AtomEntry;
}  // namespace detail

enum class RelOp : std::uint8_t {
  LE,  ///< expr <= 0 (integer-valued: subject to tightening and FM)
  EQ,  ///< expr == 0
  NE,  ///< expr != 0
  // Real-valued comparisons: kept uninterpreted (no integer tightening, no
  // FM participation) but still substitutable and logically consistent —
  // the paper "handles integer conditions more thoroughly than floating
  // point ones" (§5.2), and these carry the floating-point ones soundly.
  RLT,  ///< expr < 0 over an ordered field
  RLE,  ///< expr <= 0
  REQ,  ///< expr == 0
  RNE,  ///< expr != 0
};

/// Opaque id of an array type (mirrors region.h's ArrayId without the
/// include cycle; both are the same 32-bit intern index).
struct AtomArrayRef {
  std::uint32_t value = UINT32_MAX;
  friend constexpr bool operator==(AtomArrayRef, AtomArrayRef) = default;
  friend constexpr auto operator<=>(AtomArrayRef, AtomArrayRef) = default;
};

class Atom {
 public:
  enum class Kind : std::uint8_t {
    Rel,
    LogVar,
    /// §5.2 quantified-guard extension: an *uninterpreted* predicate over an
    /// array element — `q(array[sub])` with `q` identified by an interned
    /// comparison key (e.g. "the element exceeds cut2"). `positive` selects
    /// q or ¬q. Substitutable through the subscript; never enters the
    /// integer constraint engine.
    ArrayPred,
    /// ∀ bv ∈ [lo, up] : (¬)q(array[sub(bv)]) — produced by the guarded
    /// counter idiom ("kc = 0; DO k: IF (q(k)) kc = kc+1" followed by a
    /// kc == 0 test).
    Forall,
  };

  /// The relational atom `0 <= 0` (True); containers default-construct it.
  Atom();

  /// Relational atom `e op 0`.
  static Atom rel(SymExpr e, RelOp op);
  /// Logical-variable atom `v == value` (v ranges over {false, true}).
  static Atom logicalVar(VarId v, bool value);
  /// Uninterpreted array-element predicate (see Kind::ArrayPred): the
  /// element `array[subscript]` stands in relation `predKey` (an interned
  /// relation tag, e.g. "ap$gt") to `rhs`. Both subscript and rhs are
  /// substitutable symbolic expressions.
  static Atom arrayPred(AtomArrayRef array, VarId predKey, SymExpr subscript, SymExpr rhs,
                        bool positive);
  /// Universally quantified array-element predicate (see Kind::Forall).
  static Atom forallPred(AtomArrayRef array, VarId predKey, VarId boundVar, SymExpr subscript,
                         SymExpr rhs, SymExpr lo, SymExpr up, bool positive);

  // Convenience constructors for the common comparisons a op b.
  static Atom le(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::LE); }
  static Atom lt(const SymExpr& a, const SymExpr& b) { return rel(a - b + 1, RelOp::LE); }
  static Atom ge(const SymExpr& a, const SymExpr& b) { return le(b, a); }
  static Atom gt(const SymExpr& a, const SymExpr& b) { return lt(b, a); }
  static Atom eq(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::EQ); }
  static Atom ne(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::NE); }

  // Real-valued comparison builders.
  static Atom rlt(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::RLT); }
  static Atom rle(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::RLE); }
  static Atom req(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::REQ); }
  static Atom rne(const SymExpr& a, const SymExpr& b) { return rel(a - b, RelOp::RNE); }

  Kind kind() const { return kind_; }
  const SymExpr& expr() const { return expr_; }
  RelOp op() const { return op_; }
  VarId logical() const { return lvar_; }
  bool logicalValue() const { return lval_; }

  // ArrayPred / Forall accessors. `expr()` carries the subscript; `logical()`
  // carries the predicate key; `logicalValue()` the polarity.
  AtomArrayRef predArray() const { return apArray_; }
  const SymExpr& predRhs() const { return apRhs_; }
  VarId boundVar() const { return apBound_; }
  const SymExpr& forallLo() const { return apLo_; }
  const SymExpr& forallUp() const { return apUp_; }

  /// True when the relational expression is poisoned (value unknowable).
  bool isPoisoned() const { return kind_ == Kind::Rel && expr_.isPoisoned(); }

  /// The complementary atom. Derived on the first call for each distinct
  /// atom and stored in the atom table; later calls read it back.
  Atom negated() const;

  /// Constant folding: True/False when the atom's truth is independent of any
  /// variable, Unknown otherwise.
  Truth constFold() const;

  /// Evaluation under a concrete binding (logical variables bound to 0/1).
  std::optional<bool> evaluate(const Binding& binding) const;

  Atom substituted(VarId v, const SymExpr& replacement) const;
  Atom substituted(const std::map<VarId, SymExpr>& replacements) const;
  bool containsVar(VarId v) const;
  void collectVars(std::vector<VarId>& out) const;

  /// Total structural order used to canonicalize clause atom lists. Never
  /// consults the key: keys are allocation order, which depends on thread
  /// interleaving.
  static int compare(const Atom& a, const Atom& b);
  /// The atom-table key (predicate/intern.h): atomKey(a) == atomKey(b) iff
  /// every field is equal, which — the factories leave unused fields at
  /// canonical defaults — coincides with compare(a, b) == 0. Serves equality
  /// and memo keys only.
  friend std::uint64_t atomKey(const Atom& a) { return a.key_; }
  friend bool operator==(const Atom& a, const Atom& b) { return a.key_ == b.key_; }

  /// O(1) structural hash combined from the handles' cached identities.
  std::size_t hashValue() const;

  /// Adds this atom as a hypothesis to `cs`. Returns false when the atom is
  /// not representable (non-affine Rel); logical atoms are encoded as
  /// equalities over a 0/1 variable.
  bool addToConstraints(ConstraintSet& cs) const;

  std::string str(const SymbolTable& symtab) const;

 private:
  friend struct detail::AtomEntry;

  /// A blank atom of `kind`, not yet interned: the factories fill in the
  /// fields, then intern().
  explicit Atom(Kind kind) : kind_(kind) {}
  /// The table's copy of this atom (key and entry set), adding it if new.
  Atom intern() const;
  /// negated() without the table: builds the complementary atom.
  Atom deriveNegation() const;

  Kind kind_ = Kind::Rel;
  RelOp op_ = RelOp::LE;
  bool lval_ = false;  // LogVar value / ArrayPred polarity
  VarId lvar_;         // LogVar: the variable; ArrayPred/Forall: the predicate key
  AtomArrayRef apArray_;
  VarId apBound_;  // Forall: the quantified variable
  SymExpr expr_;   // Rel: the compared expression; ArrayPred/Forall: the subscript
  SymExpr apRhs_;  // ArrayPred/Forall: the comparison's other side
  SymExpr apLo_;   // Forall bounds
  SymExpr apUp_;
  std::uint64_t key_ = 0;                     // set by intern()
  const detail::AtomEntry* entry_ = nullptr;  // set by intern()
};

/// True for the quantified-extension kinds.
inline bool isQuantifiedKind(Atom::Kind k) {
  return k == Atom::Kind::ArrayPred || k == Atom::Kind::Forall;
}

/// Is `a ∧ b` unsatisfiable? (True = provably contradictory.)
Truth atomsContradict(const Atom& a, const Atom& b);

/// Is `a ∨ b` a tautology? (True = provably exhaustive.)
Truth atomsExhaustive(const Atom& a, const Atom& b);

/// Does `a` entail `b`?
Truth atomImplies(const Atom& a, const Atom& b);

/// Solves `forallAtom.expr()(boundVar) == target` for the bound variable
/// (affine, coefficient ±1). Shared by the atom- and predicate-level
/// quantifier instantiation rules.
std::optional<SymExpr> solveForallInstance(const Atom& forallAtom, const SymExpr& target);

}  // namespace panorama
