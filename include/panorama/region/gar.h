// Guarded array regions (GARs) and GAR lists — the paper's central data
// structure (§3). A GAR [P, R] pairs a regular array region R with a guard
// predicate P describing the condition under which R is accessed. A GarList
// is a finite union of GARs and is closed under ∪, ∩ and −.
//
// Soundness contract (see predicate.h for the guard side):
//   * Summaries are exact while every guard is exact (no Δ) and every region
//     dimension is known (no Ω).
//   * When unknowns appear, a GarList *over-approximates* the set it stands
//     for — every consumer that needs a may-set (upward exposure, dependence
//     intersection) uses it directly; consumers that need a must-set (kill)
//     only act on pieces whose guard has no Δ and whose region has no Ω.
#pragma once

#include <string>
#include <vector>

#include "panorama/region/region.h"

namespace panorama {

class GarList;

class Gar {
 public:
  Gar() = default;

  /// Builds [guard ∧ validity(region), region] — §3 keeps the l <= u range
  /// conditions explicitly in the guard. When ψ dimension symbols (§5.3, see
  /// PsiDims in cmp.h) appear in the guard, their region-extent bounds are
  /// conjoined too; callers inside an analysis pass the analyzer's ψ binding
  /// (usually via CmpCtx::psi()), so parallel analyses never share state.
  static Gar make(Pred guard, Region region, const PsiDims& psi = {});
  /// What make() conjoins before it simplifies: guard ∧ validity(region),
  /// plus the ψ extent bounds. make(g, r, ψ) is exactly conjoined(g, r, ψ)
  /// simplified, so a GAR whose guard is simplified and equal to its own
  /// conjoined() is what make() returns for it.
  static Pred conjoined(Pred guard, const Region& region, const PsiDims& psi);
  /// The fully unknown GAR Ω of one array: [Δ, all dims unknown].
  static Gar omega(ArrayId array, int rank);
  /// Rebuilds a GAR verbatim from an already-normalized guard/region pair —
  /// the session store's deserialization hook. Unlike make(), nothing is
  /// conjoined or simplified: the parts must come from a previously built
  /// GAR, or the validity contract of make() is silently lost.
  static Gar fromParts(Pred guard, Region region);

  const Pred& guard() const { return guard_; }
  const Region& region() const { return region_; }
  ArrayId array() const { return region_.array(); }

  bool isEmpty() const { return guard_.isFalse(); }
  bool isOmega() const { return guard_.isUnknown() && region_.hasUnknownDim(); }
  /// Usable as a must-set piece (kill): exact guard and fully known region.
  bool isExact() const { return !guard_.isUnknown() && region_.fullyKnown(); }

  Gar substituted(VarId v, const SymExpr& r) const;
  Gar substituted(const std::map<VarId, SymExpr>& r) const;
  bool containsVar(VarId v) const;
  void collectVars(std::vector<VarId>& out) const;

  /// Conjoins `p` into the guard (used when propagating through an
  /// IF-condition node).
  Gar withGuard(const Pred& p) const;

  /// Concrete semantics for the validation oracle: the element set under
  /// `binding`, or nullopt when the GAR's truth cannot be decided (Δ guard
  /// that does not evaluate, Ω dims, unbound symbols).
  std::optional<std::set<std::vector<std::int64_t>>> enumerate(
      const Binding& binding, std::size_t maxCount = 1 << 16) const;

  std::string str(const SymbolTable& symtab, const ArrayTable& arrays) const;
  friend bool operator==(const Gar& a, const Gar& b) {
    return a.guard_ == b.guard_ && a.region_ == b.region_;
  }

 private:
  // Two handles: copying a GAR allocates nothing.
  Pred guard_;     // defaults to True
  Region region_;  // defaults to the "no region" (invalid; use make())
};

/// A union of GARs, possibly over several arrays (summaries carry all arrays
/// of a segment at once).
class GarList {
 public:
  GarList() = default;
  static GarList single(Gar g);

  bool empty() const { return gars_.empty(); }
  std::size_t size() const { return gars_.size(); }
  const std::vector<Gar>& gars() const { return gars_; }
  auto begin() const { return gars_.begin(); }
  auto end() const { return gars_.end(); }

  void add(Gar g);
  /// Appends without the empty-piece filtering of add() — the session
  /// store's deserialization hook, so a restored list is element-for-element
  /// identical to the saved one.
  void addRaw(Gar g) { gars_.push_back(std::move(g)); }
  void append(const GarList& other);

  /// Restricts every member's guard (IF-condition propagation).
  GarList withGuard(const Pred& p) const;
  GarList substituted(VarId v, const SymExpr& r) const;
  GarList substituted(const std::map<VarId, SymExpr>& r) const;
  bool containsVar(VarId v) const;

  /// The arrays mentioned, deduplicated.
  std::vector<ArrayId> arrays() const;
  /// Members touching `array` only.
  GarList forArray(ArrayId array) const;

  std::string str(const SymbolTable& symtab, const ArrayTable& arrays) const;

  /// Union of the concrete element sets of `array`'s members; nullopt when
  /// any member is undecidable under `binding`.
  std::optional<std::set<std::vector<std::int64_t>>> enumerate(
      ArrayId array, const Binding& binding, std::size_t maxCount = 1 << 16) const;

 private:
  friend GarList garUnion(const GarList&, const GarList&, const CmpCtx&, const ArrayTable*);
  friend GarList garIntersect(const GarList&, const GarList&, const CmpCtx&);
  friend GarList garSubtract(const GarList&, const GarList&, const CmpCtx&);
  friend void simplifyGarList(GarList&, const CmpCtx&, const ArrayTable*);

  std::vector<Gar> gars_;
};

/// T1 ∪ T2 with simplification (same-region guard merging, adjacency
/// merging, subsumption, §5.3 Ω absorption when `arrays` is provided).
GarList garUnion(const GarList& a, const GarList& b, const CmpCtx& ctx,
                 const ArrayTable* arrays = nullptr);

/// T1 ∩ T2 = [[P1 ∧ P2, R1 ∩ R2]] lifted over lists.
GarList garIntersect(const GarList& a, const GarList& b, const CmpCtx& ctx);

/// T1 − T2 = [[P1 ∧ P2, R1 − R2]] ∪ [P1 ∧ ¬P2, R1] lifted over lists.
/// Kill-safety: pieces of `b` that are not exact never remove anything.
GarList garSubtract(const GarList& a, const GarList& b, const CmpCtx& ctx);

/// In-place cleanup: guard simplification, dead-piece removal, merging,
/// subsumption, Ω absorption (the paper's GAR simplifier, §5.2).
void simplifyGarList(GarList& list, const CmpCtx& ctx, const ArrayTable* arrays = nullptr);

/// Emptiness of a ∩ b without materializing it (privatization test helper):
/// True when the intersection is provably empty.
Truth garIntersectionEmpty(const GarList& a, const GarList& b, const CmpCtx& ctx);

/// A DO-loop header for the expansion function of §4.1.
struct LoopBounds {
  VarId index;
  SymExpr lo;
  SymExpr up;
  SymExpr step = SymExpr::constant(1);
};

/// The expansion of §4.1: rewrites a per-iteration GarList into the union
/// over all iterations i ∈ [bounds.lo : bounds.up : bounds.step]. Exact when
/// the guard's i-constraints are interval-extractable and each region
/// dimension depends on i affinely with provable contiguity; degrades to
/// Ω dims / Δ guards otherwise.
GarList expandByIndex(const GarList& list, const LoopBounds& bounds, const CmpCtx& ctx);

}  // namespace panorama
