// Entailment between guard predicates, used by the GAR union fast paths
// (P1 => P2 collapses the three-way union of §3.1 to two terms) and by the
// privatizability proofs.
#include "panorama/predicate/predicate.h"

#include <array>

#include "panorama/obs/provenance.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/intern.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

namespace {

/// Syntactic entailment of a clause: some hypothesis clause whose every atom
/// implies an atom of `goal`.
bool clauseSubsumed(const std::vector<Disjunct>& hyp, const Disjunct& goal) {
  for (const Disjunct& h : hyp) {
    bool all = true;
    for (const Atom& a : h.atoms) {
      bool covered = false;
      for (const Atom& b : goal.atoms) {
        if (atomImplies(a, b) == Truth::True) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

}  // namespace

Truth Pred::implies(const Pred& other) const {
  // A false hypothesis implies anything; anything implies True.
  if (isFalse()) return Truth::True;
  if (other.isTrue()) return Truth::True;
  // The goal's Δ conjunct is an unknowable obligation.
  if (other.isUnknown()) return compare(*this, other) == 0 ? Truth::True : Truth::Unknown;

  // Memoized in the global query cache under interned predicate keys (exact
  // structural identity).
  QueryCache& cache = QueryCache::global();
  const std::array<std::uint64_t, 3> key{QueryCache::PredImplies, predKey(*this), predKey(other)};
  if (cache.enabled())
    if (auto hit = cache.lookup(key)) return *hit;

  // Cold evaluation below, traced as a query span (cached verdicts skip it).
  obs::Span span("query.implies", "Pred::implies");
  if (span.active()) {
    // Full predicate rendering needs a SymbolTable (unreachable here), so
    // the span carries a structural skeleton: interned keys plus clause and
    // atom cardinalities, enough to identify the query in a profile.
    auto atomCount = [](const Pred& p) {
      std::size_t n = 0;
      for (const Disjunct& d : p.clauses()) n += d.atoms.size();
      return n;
    };
    span.arg("expr", "P#" + std::to_string(predKey(*this)) + " (" +
                         std::to_string(clauses().size()) + " clauses, " +
                         std::to_string(atomCount(*this)) + " atoms) => P#" +
                         std::to_string(predKey(other)) + " (" +
                         std::to_string(other.clauses().size()) + " clauses, " +
                         std::to_string(atomCount(other)) + " atoms)");
    if (std::string ctx = obs::ProvenanceScope::currentLabel(); !ctx.empty())
      span.arg("ctx", std::move(ctx));
  }
  Truth verdict = [&] {
    // The hypothesis context available to FM: unit clauses of the CNF
    // over-approximation. (actual => CNF => goal suffices.)
    ConstraintSet context = unitConstraints();

    for (const Disjunct& goal : other.clauses()) {
      if (clauseSubsumed(clauses(), goal)) continue;
      // FM refutation: context ∧ ¬goal must be infeasible. ¬goal is the
      // conjunction of the negated atoms of the clause.
      ConstraintSet cs = context;
      bool representable = true;
      for (const Atom& a : goal.atoms) {
        if (!a.negated().addToConstraints(cs)) {
          representable = false;
          break;
        }
      }
      if (!representable) return Truth::Unknown;
      if (cs.contradictory() != Truth::True) return Truth::Unknown;
    }
    return Truth::True;
  }();
  if (span.active()) span.arg("verdict", toString(verdict));
  if (cache.enabled()) cache.store(QueryCache::Key(key.begin(), key.end()), verdict);
  return verdict;
}

}  // namespace panorama
