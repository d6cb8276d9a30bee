#include "panorama/predicate/predicate.h"

#include <algorithm>

#include "panorama/predicate/arena.h"

namespace panorama {

PredRef::PredRef() {
  static const detail::PredNode* trueNode =
      PredArena::global().intern({}, /*unknown=*/false).node_;
  node_ = trueNode;
}

PredRef PredRef::makeRaw(std::vector<Disjunct> clauses, bool unknown) {
  return PredArena::global().intern(std::move(clauses), unknown);
}

PredRef PredRef::makeFalse() {
  static const detail::PredNode* falseNode =
      PredArena::global().intern({Disjunct{}}, /*unknown=*/false).node_;
  return PredRef(falseNode);
}

PredRef PredRef::makeUnknown() {
  static const detail::PredNode* unknownNode =
      PredArena::global().intern({}, /*unknown=*/true).node_;
  return PredRef(unknownNode);
}

PredRef PredRef::atom(Atom a) {
  if (a.isPoisoned()) return makeUnknown();
  switch (a.constFold()) {
    case Truth::True: return makeTrue();
    case Truth::False: return makeFalse();
    case Truth::Unknown: break;
  }
  return makeRaw({Disjunct::single(std::move(a))}, false);
}

bool PredRef::isFalse() const {
  // False ∧ Δ is still False, so the unknown flag does not matter here.
  for (const Disjunct& d : node_->clauses)
    if (d.isFalse()) return true;
  return false;
}

void PredRef::normalizeClauses(std::vector<Disjunct>& clauses) {
  for (const Disjunct& d : clauses) {
    if (d.isFalse()) {
      clauses.assign(1, Disjunct{});
      return;
    }
  }
  for (Disjunct& d : clauses) d.normalize();
  std::sort(clauses.begin(), clauses.end(),
            [](const Disjunct& a, const Disjunct& b) { return Disjunct::compare(a, b) < 0; });
  clauses.erase(std::unique(clauses.begin(), clauses.end()), clauses.end());
}

PredRef PredRef::make(std::vector<Disjunct> clauses, bool unknown) {
  normalizeClauses(clauses);
  return makeRaw(std::move(clauses), unknown);
}

PredRef operator&&(const PredRef& a, const PredRef& b) {
  if (a.isFalse() || b.isFalse()) return PredRef::makeFalse();
  if (a.isTrue()) return b;  // conjunction with True is identity
  if (b.isTrue()) return a;
  std::vector<Disjunct> clauses = a.node_->clauses;
  clauses.insert(clauses.end(), b.node_->clauses.begin(), b.node_->clauses.end());
  return PredRef::make(std::move(clauses), a.node_->unknown || b.node_->unknown);
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
  std::vector<Disjunct> clauses;
  for (const Disjunct& da : a.node_->clauses) {
    for (const Disjunct& db : b.node_->clauses) {
      Disjunct merged;
      merged.atoms = da.atoms;
      merged.atoms.insert(merged.atoms.end(), db.atoms.begin(), db.atoms.end());
      if (merged.atoms.size() > kMaxAtomsPerClause) return PredRef::makeUnknown();
      clauses.push_back(std::move(merged));
    }
  }
  return PredRef::make(std::move(clauses), unknown);
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
  PredRef p = make(std::move(result), false);
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
  std::vector<Disjunct> clauses;
  clauses.reserve(node_->clauses.size());
  for (const Disjunct& d : node_->clauses) {
    Disjunct nd;
    for (const Atom& a : d.atoms) {
      Atom na = a.substituted(v, replacement);
      if (na.isPoisoned()) return makeUnknown();
      nd.atoms.push_back(std::move(na));
    }
    clauses.push_back(std::move(nd));
  }
  PredRef r = make(std::move(clauses), node_->unknown);
  r.simplify();
  return r;
}

PredRef PredRef::substituted(const std::map<VarId, ExprRef>& replacements) const {
  std::vector<Disjunct> clauses;
  clauses.reserve(node_->clauses.size());
  for (const Disjunct& d : node_->clauses) {
    Disjunct nd;
    for (const Atom& a : d.atoms) {
      Atom na = a.substituted(replacements);
      if (na.isPoisoned()) return makeUnknown();
      nd.atoms.push_back(std::move(na));
    }
    clauses.push_back(std::move(nd));
  }
  PredRef r = make(std::move(clauses), node_->unknown);
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
