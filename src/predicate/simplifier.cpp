// The predicate simplifier (§5.2): pairwise evaluation of disjunction pairs
// and relational-expression pairs, constant folding, subsumption, and a
// bounded satisfiability check (pairwise rules first, Fourier-Motzkin over
// unit clauses second, then a shallow case split over one non-unit clause).
#include <algorithm>
#include <array>

#include "panorama/predicate/arena.h"
#include "panorama/predicate/intern.h"
#include "panorama/predicate/predicate.h"

namespace panorama {

namespace {

/// The interned pre-simplify predicate.
using SimplifyKey = std::array<std::uint64_t, 1>;

/// Pred::simplify results, sized by the process memo capacity like the
/// verdict cache, so `--no-cache` turns both off.
ShardedMemo<SimplifyKey, Pred>& simplifyMemo() {
  static ShardedMemo<SimplifyKey, Pred> memo(QueryCache::global().sharedCapacity());
  return memo;
}

}  // namespace

QueryCache::Stats simplifyMemoStats() { return simplifyMemo().stats(); }

void clearSimplifyMemo() { simplifyMemo().clear(); }

namespace {

/// c1 => c2 when every atom of c1 implies some atom of c2 (then any model of
/// c1 satisfies c2 as well).
bool clauseImplies(const Disjunct& c1, const Disjunct& c2) {
  for (const Atom& a : c1.atoms) {
    bool covered = false;
    for (const Atom& b : c2.atoms) {
      if (atomImplies(a, b) == Truth::True) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

/// Satisfiability of a CNF with a small case-split budget. Returns True when
/// provably unsatisfiable.
Truth cnfUnsat(const std::vector<Disjunct>& clauses, int depth) {
  ConstraintSet cs;
  const Disjunct* split = nullptr;
  std::vector<const Atom*> units;
  for (const Disjunct& d : clauses) {
    if (d.isFalse()) return Truth::True;
    if (d.atoms.size() == 1) {
      units.push_back(&d.atoms[0]);
      d.atoms[0].addToConstraints(cs);  // unrepresentable atoms weaken the context
    } else if (!split || d.atoms.size() < split->atoms.size()) {
      split = &d;
    }
  }
  // Pairwise contradictions between unit facts — this is where real-valued
  // and logical-variable clashes surface (they never enter the FM system).
  for (std::size_t i = 0; i < units.size(); ++i)
    for (std::size_t j = i + 1; j < units.size(); ++j)
      if (atomsContradict(*units[i], *units[j]) == Truth::True)
        return Truth::True;
  // Quantifier instantiation with context: ∀bv∈[lo,up] (¬)q(f(bv)) clashes
  // with an opposite q(t) when lo <= solve(f(bv)=t) <= up is *entailed by
  // the other unit facts* (e.g. the ψ-range atoms attached to a region).
  for (const Atom* fa : units) {
    if (fa->kind() != Atom::Kind::Forall) continue;
    for (const Atom* ap : units) {
      if (ap->kind() != Atom::Kind::ArrayPred) continue;
      if (fa->predArray() != ap->predArray() || fa->logical() != ap->logical() ||
          fa->logicalValue() == ap->logicalValue() || !(fa->predRhs() == ap->predRhs()))
        continue;
      auto t = solveForallInstance(*fa, ap->expr());
      if (!t) continue;
      if (cs.impliesLE0(fa->forallLo() - *t) == Truth::True &&
          cs.impliesLE0(*t - fa->forallUp()) == Truth::True)
        return Truth::True;
    }
  }
  Truth base = cs.contradictory();
  if (base == Truth::True) return Truth::True;
  if (!split || depth <= 0) return base == Truth::False && !split ? Truth::False : Truth::Unknown;
  // Case split: unsat iff every branch (clauses ∧ atom) is unsat.
  for (const Atom& a : split->atoms) {
    std::vector<Disjunct> branch;
    branch.reserve(clauses.size());
    for (const Disjunct& d : clauses)
      if (&d != split) branch.push_back(d);
    branch.push_back(Disjunct::single(a));
    if (cnfUnsat(branch, depth - 1) != Truth::True) return Truth::Unknown;
  }
  return Truth::True;
}

}  // namespace

void PredRef::simplify() {
  // Handles are always canonical, so a False predicate is already the single
  // empty clause — nothing to rewrite.
  if (isFalse()) return;
  if (clauses().size() > kMaxClauses) {
    *this = makeUnknown();
    return;
  }
  if (clauses().empty()) return;  // True / Δ: nothing to do

  const SimplifyKey key{predKey(*this)};
  if (auto hit = simplifyMemo().lookup(key)) {
    *this = *hit;
    return;
  }
  *this = simplifyUncached(clauses(), isUnknown());
  simplifyMemo().store(key, *this);
}

PredRef PredRef::simplifyUncached(std::vector<Disjunct> clauses, bool unknown) {
  // Pass 1: constant folding and poisoned-atom quarantine, per clause.
  std::vector<Disjunct> kept;
  for (Disjunct& d : clauses) {
    Disjunct nd;
    bool clauseTrue = false;
    bool clausePoisoned = false;
    for (Atom& a : d.atoms) {
      if (a.isPoisoned()) {
        clausePoisoned = true;  // truth unknowable: clause degrades to Δ
        continue;
      }
      switch (a.constFold()) {
        case Truth::True: clauseTrue = true; break;
        case Truth::False: break;  // false atom contributes nothing
        case Truth::Unknown: nd.atoms.push_back(std::move(a)); break;
      }
      if (clauseTrue) break;
    }
    if (clauseTrue) continue;  // tautological clause: drop
    if (clausePoisoned) {
      unknown = true;  // over-approximate the clause by True, remember Δ
      continue;
    }
    if (nd.atoms.empty())  // all atoms false: whole predicate is False
      return makeFalse(unknown);
    nd.normalize();
    kept.push_back(std::move(nd));
  }
  clauses = std::move(kept);

  // Pass 2: pairwise work inside each clause — drop atoms implied into
  // another atom (a ∨ b = b when a => b), detect tautologies (a ∨ ¬a).
  std::vector<Disjunct> kept2;
  for (Disjunct& d : clauses) {
    bool clauseTrue = false;
    std::vector<bool> dead(d.atoms.size(), false);
    for (std::size_t i = 0; i < d.atoms.size() && !clauseTrue; ++i) {
      if (dead[i]) continue;
      for (std::size_t j = 0; j < d.atoms.size(); ++j) {
        if (i == j || dead[j]) continue;
        if (atomsExhaustive(d.atoms[i], d.atoms[j]) == Truth::True) {
          clauseTrue = true;
          break;
        }
        if (atomImplies(d.atoms[i], d.atoms[j]) == Truth::True) {
          dead[i] = true;  // weaker atom j absorbs i within a disjunction
          break;
        }
      }
    }
    if (clauseTrue) continue;
    Disjunct nd;
    for (std::size_t i = 0; i < d.atoms.size(); ++i)
      if (!dead[i]) nd.atoms.push_back(std::move(d.atoms[i]));
    kept2.push_back(std::move(nd));
  }
  clauses = std::move(kept2);

  // Pass 3: unit resolution. A unit clause {a} removes any atom b with
  // a ∧ b contradictory from other clauses, and deletes clauses containing an
  // atom implied by a.
  clauses.resize(normalizeClauses(clauses));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t u = 0; u < clauses.size(); ++u) {
      if (clauses[u].atoms.size() != 1) continue;
      const Atom unit = clauses[u].atoms[0];
      for (std::size_t k = 0; k < clauses.size(); ++k) {
        if (k == u) continue;
        Disjunct& d = clauses[k];
        bool clauseRedundant = false;
        std::size_t before = d.atoms.size();
        std::erase_if(d.atoms, [&](const Atom& b) {
          return atomsContradict(unit, b) == Truth::True;
        });
        if (!(d.atoms.size() == 1 && d.atoms[0] == unit)) {
          for (const Atom& b : d.atoms) {
            if (atomImplies(unit, b) == Truth::True) {
              clauseRedundant = true;
              break;
            }
          }
        }
        if (clauseRedundant) {
          d.atoms.clear();
          d.atoms.push_back(unit);  // degrade to a copy; dedup removes it below
          changed = true;
        } else if (d.atoms.empty()) {
          // every literal of the clause clashed with the unit: contradiction
          return makeFalse(unknown);
        } else if (d.atoms.size() != before) {
          changed = true;
        }
      }
    }
    if (changed) clauses.resize(normalizeClauses(clauses));
  }

  // Pass 4: clause subsumption (c1 => c2 lets us drop c2 from the
  // conjunction) — the CNF keeps the *stronger* clause.
  std::vector<bool> drop(clauses.size(), false);
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (drop[i]) continue;
    for (std::size_t j = 0; j < clauses.size(); ++j) {
      if (i == j || drop[j] || drop[i]) continue;
      if (clauseImplies(clauses[i], clauses[j])) drop[j] = true;
    }
  }
  std::vector<Disjunct> kept3;
  for (std::size_t i = 0; i < clauses.size(); ++i)
    if (!drop[i]) kept3.push_back(std::move(clauses[i]));
  clauses = std::move(kept3);
  clauses.resize(normalizeClauses(clauses));

  // Pass 5: global satisfiability of what remains.
  const bool falseNow =
      std::any_of(clauses.begin(), clauses.end(), [](const Disjunct& d) { return d.isFalse(); });
  if (falseNow || (!clauses.empty() && cnfUnsat(clauses, /*depth=*/2) == Truth::True))
    return makeFalse();  // False ∧ Δ = False
  return internPred(clauses, unknown);
}

Truth PredRef::provablyFalse() const {
  if (isFalse()) return Truth::True;
  if (clauses().empty()) return Truth::False;  // True (possibly ∧ Δ — still satisfiable info-wise)
  Truth t = cnfUnsat(clauses(), /*depth=*/2);
  if (t == Truth::True) return Truth::True;
  return t == Truth::False && !isUnknown() ? Truth::False : Truth::Unknown;
}

}  // namespace panorama
