// Guard predicates in ordered conjunctive normal form (§3.1, §5.2).
//
// A predicate is a conjunction of disjunctions of atoms, plus an optional
// "unknown conjunct" flag modeling the paper's Δ: a predicate with the flag
// set stands for `CNF ∧ Δ` where Δ is a condition the analyzer could not
// express. The CNF part is therefore always an *over-approximation* of the
// true guard:
//
//   * mayHold()  — the guard could be true (uses the CNF over-approximation);
//     sound for treating a region as possibly accessed.
//   * provablyFalse() — the guard is certainly false (False ∧ Δ = False);
//     sound for discarding a region entirely.
//   * isTrue() — the guard is certainly true; requires no Δ. Sound for
//     treating a MOD region as definitely written (kill).
//
// All operators keep these semantics: ∧ and ∨ of over-approximations
// over-approximate; ¬ of a Δ-tainted predicate degrades to True ∧ Δ.
//
// Like expressions, predicates are hash-consed: every distinct (clauses, Δ)
// value is interned once (predicate arena), and a `PredRef` is an 8-byte
// immutable handle. All construction paths normalize (clauses sorted by
// Disjunct::compare, atoms sorted within clauses, False canonical as the
// single empty clause), so pointer equality of handles is structural — and
// hence semantic-order — equality, and hashing is O(1). "Mutators" like
// simplify() rebind the handle to the simplified value's node.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "panorama/predicate/atom.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

/// A disjunction of atoms. The empty disjunction is False.
struct Disjunct {
  std::vector<Atom> atoms;  // sorted by Atom::compare, deduplicated

  static Disjunct single(Atom a);
  bool isFalse() const { return atoms.empty(); }

  void normalize();
  std::optional<bool> evaluate(const Binding& binding) const;
  std::string str(const SymbolTable& symtab) const;

  static int compare(const Disjunct& a, const Disjunct& b);
  friend bool operator==(const Disjunct& a, const Disjunct& b) { return a.atoms == b.atoms; }
};

/// CNF size valves of the §5.2 simplifier: a guard that would grow past
/// either bound degrades to Δ. Fixed limits, not analysis options.
inline constexpr std::size_t kMaxClauses = 48;
inline constexpr std::size_t kMaxAtomsPerClause = 12;

namespace detail {
/// One interned predicate value (arena-owned, immutable, stable address).
struct PredNode {
  std::vector<Disjunct> clauses;  // sorted by Disjunct::compare
  bool unknown = false;           // the Δ conjunct
  std::size_t hash = 0;           // structural hash, cached at interning time
  std::uint64_t id = 0;           // dense arena key; shard index in the low bits
};
}  // namespace detail

class PredRef {
 public:
  /// Default-constructed predicate is True.
  PredRef();

  static PredRef makeTrue() { return PredRef(); }
  static PredRef makeFalse();
  /// The unknown guard Δ (True ∧ Δ).
  static PredRef makeUnknown();
  static PredRef atom(Atom a);

  bool isTrue() const { return node_->clauses.empty() && !node_->unknown; }
  bool isFalse() const;
  bool isUnknown() const { return node_->unknown; }
  /// True when nothing rules the guard out (not provably false).
  bool mayHold() const { return !isFalse(); }

  const std::vector<Disjunct>& clauses() const { return node_->clauses; }

  /// Logical operators; arguments are over-approximations and so are results.
  friend PredRef operator&&(const PredRef& a, const PredRef& b);
  friend PredRef operator||(const PredRef& a, const PredRef& b);
  PredRef operator!() const;

  /// Rebinds this handle to the cleaned-up value: constant folding,
  /// clause/atom dedup, pairwise subsumption, contradiction detection (the
  /// paper's predicate simplifier). The result is a pure function of the
  /// predicate and is memoized — keyed by the 8-byte arena id — in a
  /// bounded global value cache gated by QueryCache::global()'s capacity.
  void simplify();

  /// Deep check: is the CNF part unsatisfiable? Uses pairwise rules first,
  /// then a Fourier-Motzkin pass over the unit clauses.
  Truth provablyFalse() const;

  /// Does this predicate entail `other`? Δ on `this` weakens nothing (a
  /// stronger hypothesis still entails); Δ on `other` forces Unknown.
  Truth implies(const PredRef& other) const;

  /// Evaluation under a concrete binding. nullopt when any atom cannot be
  /// evaluated or the predicate is Δ-tainted (its truth is unknowable).
  std::optional<bool> evaluate(const Binding& binding) const;
  /// Evaluates just the CNF over-approximation (ignores Δ); used by property
  /// tests that check over-approximation, not equivalence.
  std::optional<bool> evaluateCnf(const Binding& binding) const;

  PredRef substituted(VarId v, const ExprRef& replacement) const;
  PredRef substituted(const std::map<VarId, ExprRef>& replacements) const;
  bool containsVar(VarId v) const;
  void collectVars(std::vector<VarId>& out) const;

  /// Flattens the unit clauses (and only those — sound weakening) into a
  /// constraint set usable as an FM hypothesis context.
  ConstraintSet unitConstraints() const;

  /// Conjoins a single atom (cheap common case).
  void andAtom(Atom a);

  /// Total structural order (Δ flag, then clause lists).
  static int compare(const PredRef& a, const PredRef& b);
  /// Hash-consing makes equality a pointer compare: one node per value.
  friend bool operator==(const PredRef& a, const PredRef& b) { return a.node_ == b.node_; }

  std::string str(const SymbolTable& symtab) const;
  /// The structural hash, cached on the node at interning time.
  std::size_t hashValue() const { return node_->hash; }
  /// Dense 64-bit arena key; id equality <=> structural equality.
  std::uint64_t id() const { return node_->id; }

 private:
  friend PredRef internPred(std::span<const Disjunct> clauses, bool unknown);
  explicit PredRef(const detail::PredNode* node) : node_(node) {}

  /// Normalizes `clauses` in place and interns the canonical result.
  static PredRef make(std::span<Disjunct> clauses, bool unknown);
  /// The False clause list (one empty clause), with or without Δ.
  static PredRef makeFalse(bool unknown);
  /// Normalizes in place — False absorbs the conjunction, atoms and clauses
  /// sorted and deduplicated — and returns the canonical prefix's length.
  /// Slots are only ever swapped, so a reused buffer keeps its capacity.
  static std::size_t normalizeClauses(std::span<Disjunct> clauses);
  /// The actual simplifier passes; simplify() wraps this in the memo.
  static PredRef simplifyUncached(std::vector<Disjunct> clauses, bool unknown);

  const detail::PredNode* node_;
};

/// The paper-facing name for guard predicates.
using Pred = PredRef;

/// Counters of the global simplify value memo (hits/misses/evictions;
/// `entries` is the resident count). Shares QueryCache::global()'s capacity
/// gate, so configure(0) disables it too.
QueryCache::Stats simplifyMemoStats();
/// Drops the simplify memo's entries and counters (capacity-independent).
void clearSimplifyMemo();

}  // namespace panorama
