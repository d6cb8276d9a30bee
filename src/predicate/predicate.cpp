#include "panorama/predicate/predicate.h"

#include <algorithm>

#include "panorama/predicate/arena.h"
#include "panorama/support/slot_scratch.h"

namespace panorama {

namespace {

/// The calling thread's candidate clause list (support/slot_scratch.h).
using ClauseScratch = SlotScratch<Disjunct, &Disjunct::atoms>;

}  // namespace

PredRef::PredRef() {
  static const detail::PredNode* trueNode = internPred({}, /*unknown=*/false).node_;
  node_ = trueNode;
}

PredRef PredRef::makeFalse(bool unknown) {
  static const Disjunct emptyClause;
  return internPred({&emptyClause, 1}, unknown);
}

PredRef PredRef::makeFalse() {
  static const detail::PredNode* falseNode = makeFalse(/*unknown=*/false).node_;
  return PredRef(falseNode);
}

PredRef PredRef::makeUnknown() {
  static const detail::PredNode* unknownNode = internPred({}, /*unknown=*/true).node_;
  return PredRef(unknownNode);
}

PredRef PredRef::atom(Atom a) {
  if (a.isPoisoned()) return makeUnknown();
  switch (a.constFold()) {
    case Truth::True: return makeTrue();
    case Truth::False: return makeFalse();
    case Truth::Unknown: break;
  }
  ClauseScratch& scratch = ClauseScratch::local();
  scratch.push().atoms.push_back(std::move(a));
  return internPred(scratch.items(), false);
}

bool PredRef::isFalse() const {
  // False ∧ Δ is still False, so the unknown flag does not matter here.
  for (const Disjunct& d : node_->clauses)
    if (d.isFalse()) return true;
  return false;
}

std::size_t PredRef::normalizeClauses(std::span<Disjunct> clauses) {
  for (Disjunct& d : clauses) {
    if (d.isFalse()) {
      std::swap(clauses.front(), d);
      return 1;
    }
  }
  for (Disjunct& d : clauses) d.normalize();
  std::sort(clauses.begin(), clauses.end(),
            [](const Disjunct& a, const Disjunct& b) { return Disjunct::compare(a, b) < 0; });
  std::size_t kept = 0;
  for (std::size_t k = 0; k < clauses.size(); ++k)
    if (kept == 0 || !(clauses[kept - 1] == clauses[k])) std::swap(clauses[kept++], clauses[k]);
  return kept;
}

PredRef PredRef::make(std::span<Disjunct> clauses, bool unknown) {
  return internPred(clauses.first(normalizeClauses(clauses)), unknown);
}

PredRef operator&&(const PredRef& a, const PredRef& b) {
  if (a.isFalse() || b.isFalse()) return PredRef::makeFalse();
  if (a.isTrue()) return b;  // conjunction with True is identity
  if (b.isTrue()) return a;
  // Both clause lists are canonical, so merging them (one copy of a clause
  // both share) yields the normalized conjunction.
  ClauseScratch& scratch = ClauseScratch::local();
  const std::vector<Disjunct>& ca = a.node_->clauses;
  const std::vector<Disjunct>& cb = b.node_->clauses;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ca.size() || j < cb.size()) {
    const int c = i == ca.size()   ? 1
                  : j == cb.size() ? -1
                                   : Disjunct::compare(ca[i], cb[j]);
    const Disjunct& src = c <= 0 ? ca[i] : cb[j];
    scratch.push().atoms.assign(src.atoms.begin(), src.atoms.end());
    if (c <= 0) ++i;
    if (c >= 0) ++j;
  }
  return internPred(scratch.items(), a.node_->unknown || b.node_->unknown);
}

PredRef operator||(const PredRef& a, const PredRef& b) {
  if (a.isFalse()) return b;
  if (b.isFalse()) return a;
  if (a.isTrue() || b.isTrue()) {
    // True absorbs even a Δ-tainted operand: (P ∧ Δ) ∨ True = True.
    return PredRef::makeTrue();
  }
  const bool unknown = a.node_->unknown || b.node_->unknown;
  // CNF ∨ CNF: clause-pair distribution. (over-approximations stay such)
  if (a.node_->clauses.size() * b.node_->clauses.size() > kMaxClauses)
    return PredRef::makeUnknown();
  ClauseScratch& scratch = ClauseScratch::local();
  for (const Disjunct& da : a.node_->clauses) {
    for (const Disjunct& db : b.node_->clauses) {
      if (da.atoms.size() + db.atoms.size() > kMaxAtomsPerClause) return PredRef::makeUnknown();
      Disjunct& merged = scratch.push();
      merged.atoms.assign(da.atoms.begin(), da.atoms.end());
      merged.atoms.insert(merged.atoms.end(), db.atoms.begin(), db.atoms.end());
    }
  }
  return PredRef::make(scratch.items(), unknown);
}

PredRef PredRef::operator!() const {
  if (isFalse()) return makeTrue();
  if (node_->unknown) return makeUnknown();  // ¬(P ∧ Δ) degrades to Δ
  if (node_->clauses.empty()) return makeFalse();
  // ¬(∧ Cj) = ∨ ¬Cj; each ¬Cj is a conjunction of negated atoms. Distribute
  // clause by clause, bounding the intermediate size.
  std::vector<Disjunct> result;  // CNF under construction, starts as True
  for (const Disjunct& clause : node_->clauses) {
    // next = result ∨ (∧_k ¬atom_k): distribute each negated atom.
    std::vector<Disjunct> next;
    if (result.empty()) {
      for (const Atom& a : clause.atoms) next.push_back(Disjunct::single(a.negated()));
    } else {
      if (result.size() * clause.atoms.size() > kMaxClauses) return makeUnknown();
      for (const Disjunct& d : result) {
        for (const Atom& a : clause.atoms) {
          Disjunct merged = d;
          merged.atoms.push_back(a.negated());
          if (merged.atoms.size() > kMaxAtomsPerClause) return makeUnknown();
          next.push_back(std::move(merged));
        }
      }
    }
    result = std::move(next);
    if (result.size() > kMaxClauses) return makeUnknown();
  }
  PredRef p = make(result, false);
  p.simplify();
  return p;
}

std::optional<bool> PredRef::evaluateCnf(const Binding& binding) const {
  bool sawUnknown = false;
  for (const Disjunct& d : node_->clauses) {
    auto v = d.evaluate(binding);
    if (!v)
      sawUnknown = true;
    else if (!*v)
      return false;
  }
  if (sawUnknown) return std::nullopt;
  return true;
}

std::optional<bool> PredRef::evaluate(const Binding& binding) const {
  auto cnf = evaluateCnf(binding);
  if (cnf.has_value() && !*cnf) return false;  // False ∧ Δ = False
  if (node_->unknown) return std::nullopt;
  return cnf;
}

PredRef PredRef::substituted(VarId v, const ExprRef& replacement) const {
  ClauseScratch& scratch = ClauseScratch::local();
  for (const Disjunct& d : node_->clauses) {
    Disjunct& nd = scratch.push();
    for (const Atom& a : d.atoms) {
      Atom na = a.substituted(v, replacement);
      if (na.isPoisoned()) return makeUnknown();
      nd.atoms.push_back(std::move(na));
    }
  }
  PredRef r = make(scratch.items(), node_->unknown);
  r.simplify();
  return r;
}

PredRef PredRef::substituted(const std::map<VarId, ExprRef>& replacements) const {
  ClauseScratch& scratch = ClauseScratch::local();
  for (const Disjunct& d : node_->clauses) {
    Disjunct& nd = scratch.push();
    for (const Atom& a : d.atoms) {
      Atom na = a.substituted(replacements);
      if (na.isPoisoned()) return makeUnknown();
      nd.atoms.push_back(std::move(na));
    }
  }
  PredRef r = make(scratch.items(), node_->unknown);
  r.simplify();
  return r;
}

bool PredRef::containsVar(VarId v) const {
  for (const Disjunct& d : node_->clauses)
    for (const Atom& a : d.atoms)
      if (a.containsVar(v)) return true;
  return false;
}

void PredRef::collectVars(std::vector<VarId>& out) const {
  for (const Disjunct& d : node_->clauses)
    for (const Atom& a : d.atoms) a.collectVars(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

ConstraintSet PredRef::unitConstraints() const {
  ConstraintSet cs;
  for (const Disjunct& d : node_->clauses) {
    if (d.atoms.size() != 1) continue;
    d.atoms[0].addToConstraints(cs);  // failure just weakens the context
  }
  return cs;
}

void PredRef::andAtom(Atom a) {
  PredRef p = PredRef::atom(std::move(a));
  *this = *this && p;
}

int PredRef::compare(const PredRef& a, const PredRef& b) {
  if (a.node_ == b.node_) return 0;  // hash-consing: one node per value
  if (a.node_->unknown != b.node_->unknown) return a.node_->unknown ? 1 : -1;
  const std::vector<Disjunct>& ca = a.node_->clauses;
  const std::vector<Disjunct>& cb = b.node_->clauses;
  if (ca.size() != cb.size()) return ca.size() < cb.size() ? -1 : 1;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    int c = Disjunct::compare(ca[i], cb[i]);
    if (c != 0) return c;
  }
  return 0;
}

std::string PredRef::str(const SymbolTable& symtab) const {
  std::string out;
  if (node_->clauses.empty()) {
    out = node_->unknown ? "" : "true";
  } else if (isFalse()) {
    return "false";
  } else {
    for (std::size_t i = 0; i < node_->clauses.size(); ++i) {
      if (i) out += " and ";
      out += node_->clauses[i].str(symtab);
    }
  }
  if (node_->unknown) out += out.empty() ? "DELTA" : " and DELTA";
  return out;
}

}  // namespace panorama
