#include "panorama/predicate/atom.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "panorama/predicate/intern.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

namespace {

/// GCD of the variable coefficients of an affine expression (0 if constant).
std::int64_t varCoeffGcd(const SymExpr& e) {
  std::int64_t g = 0;
  for (const Term& t : e.terms())
    if (!t.vars.empty()) g = std::gcd(g, t.coef);
  return g;
}

}  // namespace

Atom::Atom() {
  static const Atom zero = rel(SymExpr(), RelOp::LE);
  *this = zero;
}

Atom Atom::intern() const { return detail::internAtom(*this).atom; }

Atom Atom::rel(SymExpr e, RelOp op) {
  Atom a(Kind::Rel);
  a.expr_ = std::move(e);
  a.op_ = op;
  // Canonicalize EQ/NE signs: e == 0 and -e == 0 coincide; pick the variant
  // whose expression compares smaller so structural equality catches both.
  if (a.op_ == RelOp::EQ || a.op_ == RelOp::NE || a.op_ == RelOp::REQ ||
      a.op_ == RelOp::RNE) {
    SymExpr neg = -a.expr_;
    if (SymExpr::compare(neg, a.expr_) < 0) a.expr_ = std::move(neg);
  } else if (a.op_ == RelOp::LE && a.expr_.isAffine() && varCoeffGcd(a.expr_) > 1) {
    // Integer tightening keeps LE atoms canonical: 2x-1<=0 and x<=0 unify.
    // Without a common factor the form is already tight, and the input
    // handle is its canonical expression.
    auto f = AffineForm::fromExpr(a.expr_);
    if (f) {
      f->tightenLE();
      if (!f->overflow) a.expr_ = f->toExpr();
    }
  }
  return a.intern();
}

Atom Atom::logicalVar(VarId v, bool value) {
  Atom a(Kind::LogVar);
  a.lvar_ = v;
  a.lval_ = value;
  return a.intern();
}

Atom Atom::arrayPred(AtomArrayRef array, VarId predKey, SymExpr subscript, SymExpr rhs,
                     bool positive) {
  Atom a(Kind::ArrayPred);
  a.apArray_ = array;
  a.lvar_ = predKey;
  a.expr_ = std::move(subscript);
  a.apRhs_ = std::move(rhs);
  a.lval_ = positive;
  return a.intern();
}

Atom Atom::forallPred(AtomArrayRef array, VarId predKey, VarId boundVar, SymExpr subscript,
                      SymExpr rhs, SymExpr lo, SymExpr up, bool positive) {
  Atom a(Kind::Forall);
  a.apArray_ = array;
  a.lvar_ = predKey;
  a.apBound_ = boundVar;
  a.expr_ = std::move(subscript);
  a.apRhs_ = std::move(rhs);
  a.apLo_ = std::move(lo);
  a.apUp_ = std::move(up);
  a.lval_ = positive;
  return a.intern();
}

Atom Atom::negated() const {
  if (const detail::AtomEntry* n = entry_->negation.load(std::memory_order_acquire))
    return n->atom;
  // Derived with no table lock held: the negation interns an atom, possibly
  // into this atom's shard.
  Atom neg = deriveNegation();
  detail::storeNegation(*entry_, *neg.entry_);
  return neg;
}

Atom Atom::deriveNegation() const {
  if (kind_ == Kind::LogVar) return logicalVar(lvar_, !lval_);
  if (kind_ == Kind::ArrayPred) return arrayPred(apArray_, lvar_, expr_, apRhs_, !lval_);
  if (kind_ == Kind::Forall) {
    // ¬∀ is ∃ — not representable; callers must treat this atom as Δ.
    // Return a poisoned relational atom so the predicate layer degrades.
    return rel(SymExpr::poisoned(), RelOp::LE);
  }
  switch (op_) {
    case RelOp::LE:  // not(e <= 0)  ==  e >= 1  ==  -e + 1 <= 0 (integers)
      return rel(-expr_ + 1, RelOp::LE);
    case RelOp::EQ:
      return rel(expr_, RelOp::NE);
    case RelOp::NE:
      return rel(expr_, RelOp::EQ);
    case RelOp::RLT:  // not(e < 0)  ==  -e <= 0
      return rel(-expr_, RelOp::RLE);
    case RelOp::RLE:  // not(e <= 0)  ==  -e < 0
      return rel(-expr_, RelOp::RLT);
    case RelOp::REQ:
      return rel(expr_, RelOp::RNE);
    case RelOp::RNE:
      return rel(expr_, RelOp::REQ);
  }
  return *this;  // unreachable
}

Truth Atom::constFold() const {
  if (kind_ != Kind::Rel) return Truth::Unknown;
  auto c = expr_.constantValue();
  if (!c) return Truth::Unknown;
  bool holds = false;
  switch (op_) {
    case RelOp::LE: holds = *c <= 0; break;
    case RelOp::EQ: holds = *c == 0; break;
    case RelOp::NE: holds = *c != 0; break;
    case RelOp::RLT: holds = *c < 0; break;
    case RelOp::RLE: holds = *c <= 0; break;
    case RelOp::REQ: holds = *c == 0; break;
    case RelOp::RNE: holds = *c != 0; break;
  }
  return holds ? Truth::True : Truth::False;
}

std::optional<bool> Atom::evaluate(const Binding& binding) const {
  if (kind_ == Kind::ArrayPred || kind_ == Kind::Forall)
    return std::nullopt;  // uninterpreted: no concrete semantics here
  if (kind_ == Kind::LogVar) {
    auto it = binding.find(lvar_);
    if (it == binding.end()) return std::nullopt;
    return (it->second != 0) == lval_;
  }
  auto v = expr_.evaluate(binding);
  if (!v) return std::nullopt;
  switch (op_) {
    case RelOp::LE: return *v <= 0;
    case RelOp::EQ: return *v == 0;
    case RelOp::NE: return *v != 0;
    case RelOp::RLT: return *v < 0;
    case RelOp::RLE: return *v <= 0;
    case RelOp::REQ: return *v == 0;
    case RelOp::RNE: return *v != 0;
  }
  return std::nullopt;  // unreachable
}

Atom Atom::substituted(VarId v, const SymExpr& replacement) const {
  if (kind_ == Kind::LogVar) return *this;
  if (kind_ == Kind::ArrayPred)
    return arrayPred(apArray_, lvar_, expr_.substitute(v, replacement),
                     apRhs_.substitute(v, replacement), lval_);
  if (kind_ == Kind::Forall) {
    if (v == apBound_) return *this;  // bound variable shadows
    return forallPred(apArray_, lvar_, apBound_, expr_.substitute(v, replacement),
                      apRhs_.substitute(v, replacement), apLo_.substitute(v, replacement),
                      apUp_.substitute(v, replacement), lval_);
  }
  return rel(expr_.substitute(v, replacement), op_);
}

Atom Atom::substituted(const std::map<VarId, SymExpr>& replacements) const {
  if (kind_ == Kind::LogVar) return *this;
  if (kind_ == Kind::ArrayPred)
    return arrayPred(apArray_, lvar_, expr_.substitute(replacements),
                     apRhs_.substitute(replacements), lval_);
  if (kind_ == Kind::Forall) {
    std::map<VarId, SymExpr> scoped = replacements;
    scoped.erase(apBound_);
    return forallPred(apArray_, lvar_, apBound_, expr_.substitute(scoped),
                      apRhs_.substitute(scoped), apLo_.substitute(scoped),
                      apUp_.substitute(scoped), lval_);
  }
  return rel(expr_.substitute(replacements), op_);
}

bool Atom::containsVar(VarId v) const {
  if (kind_ == Kind::LogVar) return lvar_ == v;
  if (kind_ == Kind::ArrayPred) return expr_.containsVar(v) || apRhs_.containsVar(v);
  if (kind_ == Kind::Forall) {
    if (v == apBound_) return false;  // bound
    return expr_.containsVar(v) || apRhs_.containsVar(v) || apLo_.containsVar(v) ||
           apUp_.containsVar(v);
  }
  return expr_.containsVar(v);
}

void Atom::collectVars(std::vector<VarId>& out) const {
  if (kind_ == Kind::LogVar) {
    out.push_back(lvar_);
  } else if (kind_ == Kind::Forall) {
    std::vector<VarId> inner;
    expr_.collectVars(inner);
    apRhs_.collectVars(inner);
    apLo_.collectVars(inner);
    apUp_.collectVars(inner);
    for (VarId v : inner)
      if (v != apBound_) out.push_back(v);
  } else if (kind_ == Kind::ArrayPred) {
    expr_.collectVars(out);
    apRhs_.collectVars(out);
  } else {
    expr_.collectVars(out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

int Atom::compare(const Atom& a, const Atom& b) {
  if (a.kind_ != b.kind_) return a.kind_ < b.kind_ ? -1 : 1;
  if (a.kind_ == Kind::LogVar) {
    if (a.lvar_ != b.lvar_) return a.lvar_ < b.lvar_ ? -1 : 1;
    if (a.lval_ != b.lval_) return a.lval_ < b.lval_ ? -1 : 1;
    return 0;
  }
  if (a.kind_ == Kind::ArrayPred || a.kind_ == Kind::Forall) {
    if (a.apArray_ != b.apArray_) return a.apArray_ < b.apArray_ ? -1 : 1;
    if (a.lvar_ != b.lvar_) return a.lvar_ < b.lvar_ ? -1 : 1;
    if (a.lval_ != b.lval_) return a.lval_ < b.lval_ ? -1 : 1;
    if (int c = SymExpr::compare(a.expr_, b.expr_)) return c;
    if (int c = SymExpr::compare(a.apRhs_, b.apRhs_)) return c;
    if (a.kind_ == Kind::Forall) {
      if (a.apBound_ != b.apBound_) return a.apBound_ < b.apBound_ ? -1 : 1;
      if (int c = SymExpr::compare(a.apLo_, b.apLo_)) return c;
      if (int c = SymExpr::compare(a.apUp_, b.apUp_)) return c;
    }
    return 0;
  }
  if (a.op_ != b.op_) return a.op_ < b.op_ ? -1 : 1;
  return SymExpr::compare(a.expr_, b.expr_);
}

std::size_t Atom::hashValue() const {
  std::size_t h = static_cast<std::size_t>(kind_) * 131 + static_cast<std::size_t>(op_);
  h = h * 131 + static_cast<std::size_t>(expr_.id());
  h = h * 131 + lvar_.value;
  h = h * 131 + (lval_ ? 1u : 0u);
  h = h * 131 + apArray_.value;
  h = h * 131 + apBound_.value;
  h = h * 131 + static_cast<std::size_t>(apRhs_.id());
  h = h * 131 + static_cast<std::size_t>(apLo_.id());
  h = h * 131 + static_cast<std::size_t>(apUp_.id());
  return h;
}

bool Atom::addToConstraints(ConstraintSet& cs) const {
  if (kind_ == Kind::ArrayPred || kind_ == Kind::Forall) return false;  // uninterpreted
  if (kind_ == Kind::LogVar) {
    // Encode v == lval with v constrained to {0, 1}.
    SymExpr v = SymExpr::variable(lvar_);
    bool ok = cs.addExprEQ0(v - SymExpr::constant(lval_ ? 1 : 0));
    ok = ok && cs.addExprLE0(-v);                       // v >= 0
    ok = ok && cs.addExprLE0(v - SymExpr::constant(1));  // v <= 1
    return ok;
  }
  switch (op_) {
    case RelOp::LE: return cs.addExprLE0(expr_);
    case RelOp::EQ: return cs.addExprEQ0(expr_);
    case RelOp::NE: return cs.addExprNE0(expr_);
    case RelOp::RLT:
    case RelOp::RLE:
    case RelOp::REQ:
    case RelOp::RNE:
      // Real-valued facts never enter the integer constraint engine
      // (tightening would be unsound); dropping a hypothesis only weakens.
      return false;
  }
  return false;  // unreachable
}

std::string Atom::str(const SymbolTable& symtab) const {
  if (kind_ == Kind::LogVar)
    return (lval_ ? symtab.name(lvar_) : "!" + symtab.name(lvar_));
  if (kind_ == Kind::ArrayPred) {
    return std::string(lval_ ? "" : "!") + symtab.name(lvar_) + "(el[" + expr_.str(symtab) +
           "], " + apRhs_.str(symtab) + ")";
  }
  if (kind_ == Kind::Forall) {
    return "forall " + symtab.name(apBound_) + " in [" + apLo_.str(symtab) + "," +
           apUp_.str(symtab) + "]: " + (lval_ ? "" : "!") + symtab.name(lvar_) + "(el[" +
           expr_.str(symtab) + "], " + apRhs_.str(symtab) + ")";
  }
  const char* suffix = " != 0";
  switch (op_) {
    case RelOp::LE: suffix = " <= 0"; break;
    case RelOp::EQ: suffix = " == 0"; break;
    case RelOp::NE: suffix = " != 0"; break;
    case RelOp::RLT: suffix = " <. 0"; break;
    case RelOp::RLE: suffix = " <=. 0"; break;
    case RelOp::REQ: suffix = " ==. 0"; break;
    case RelOp::RNE: suffix = " !=. 0"; break;
  }
  return expr_.str(symtab) + suffix;
}

std::optional<SymExpr> solveForallInstance(const Atom& fa, const SymExpr& target) {
  // Solve fa.expr()(bv) == target for the bound variable: affine with
  // coefficient ±1 only.
  if (fa.kind() != Atom::Kind::Forall) return std::nullopt;
  const SymExpr& f = fa.expr();
  if (!f.isAffine() || !target.isAffine()) return std::nullopt;
  std::int64_t c = f.affineCoeff(fa.boundVar());
  if (c != 1 && c != -1) return std::nullopt;
  SymExpr rest = f - SymExpr::variable(fa.boundVar()).mulConst(c);
  // c*bv + rest = target  =>  bv = (target - rest) / c
  SymExpr sol = target - rest;
  if (c == -1) sol = -sol;
  if (sol.containsVar(fa.boundVar())) return std::nullopt;
  return sol;
}

namespace {

bool isRealOp(RelOp op) {
  return op == RelOp::RLT || op == RelOp::RLE || op == RelOp::REQ || op == RelOp::RNE;
}

/// Contradiction rules between two real-valued relational atoms that share
/// (up to a constant offset) the same expression.
Truth realPairContradict(const Atom& a, const Atom& b) {
  const RelOp oa = a.op();
  const RelOp ob = b.op();
  // e1 rel 0 and e2 rel 0 with e1 + e2 constant: the pair bounds a single
  // quantity from both sides.
  SymExpr sum = a.expr() + b.expr();
  if (auto c = sum.constantValue()) {
    const bool aStrict = oa == RelOp::RLT;
    const bool bStrict = ob == RelOp::RLT;
    const bool aUpper = oa == RelOp::RLT || oa == RelOp::RLE;
    const bool bUpper = ob == RelOp::RLT || ob == RelOp::RLE;
    if (aUpper && bUpper) {
      // e1 <= 0 (or <) and c - e1 <= 0 (or <): needs c <= e1 <= 0.
      if (*c > 0) return Truth::True;
      if (*c == 0 && (aStrict || bStrict)) return Truth::True;
    }
  }
  // Equality against a strict/negated form on the same expression.
  auto sameExpr = [](const Atom& x, const Atom& y) {
    return x.expr() == y.expr() || x.expr() == -y.expr();
  };
  if (oa == RelOp::REQ && (ob == RelOp::RLT) && sameExpr(a, b) &&
      (a.expr() == b.expr() || a.expr() == -b.expr())) {
    // e == 0 and e < 0 (or -e < 0) cannot both hold.
    return Truth::True;
  }
  if (ob == RelOp::REQ && (oa == RelOp::RLT) && sameExpr(a, b)) return Truth::True;
  return Truth::Unknown;
}

/// a => b for real-valued atoms via a constant slack on a shared expression.
Truth realPairImplies(const Atom& a, const Atom& b) {
  const RelOp oa = a.op();
  const RelOp ob = b.op();
  const bool aUpper = oa == RelOp::RLT || oa == RelOp::RLE;
  const bool bUpper = ob == RelOp::RLT || ob == RelOp::RLE;
  if (aUpper && bUpper) {
    // a: e1 rel 0, b: e2 rel 0 with e2 = e1 + d, d constant.
    if (auto d = (b.expr() - a.expr()).constantValue()) {
      const bool aStrict = oa == RelOp::RLT;
      const bool bStrict = ob == RelOp::RLT;
      if (*d < 0) return Truth::True;                      // strictly slacker
      if (*d == 0 && (aStrict || !bStrict)) return Truth::True;
    }
    return Truth::Unknown;
  }
  if (oa == RelOp::REQ && bUpper) {
    // e == 0 implies e <= 0 and -e <= 0 (and nothing strict).
    if (ob == RelOp::RLE && (b.expr() == a.expr() || b.expr() == -a.expr()))
      return Truth::True;
  }
  if (oa == RelOp::RLT && ob == RelOp::RNE && (a.expr() == b.expr() || -a.expr() == b.expr()))
    return Truth::True;
  return Truth::Unknown;
}

}  // namespace

Truth atomsContradict(const Atom& a, const Atom& b) {
  if (a.isPoisoned() || b.isPoisoned()) return Truth::Unknown;
  // Memoized in the global query cache: the simplifier asks about the same
  // atom pairs over and over as guards flow through the propagation. Keys
  // are interned atom keys (exact structural identity, no collision risk),
  // symmetric-normalized.
  QueryCache& cache = QueryCache::global();
  std::uint64_t ka = atomKey(a);
  std::uint64_t kb = atomKey(b);
  if (kb < ka) std::swap(ka, kb);  // contradiction is symmetric
  const std::array<std::uint64_t, 3> key{QueryCache::AtomsContradict, ka, kb};
  if (cache.enabled())
    if (auto hit = cache.lookup(key)) return *hit;
  Truth result = [&] {
  if (a.kind() == Atom::Kind::LogVar && b.kind() == Atom::Kind::LogVar) {
    if (a.logical() == b.logical() && a.logicalValue() != b.logicalValue()) return Truth::True;
    return Truth::Unknown;
  }
  if (a.kind() == Atom::Kind::ArrayPred && b.kind() == Atom::Kind::ArrayPred) {
    if (a.predArray() == b.predArray() && a.logical() == b.logical() &&
        a.logicalValue() != b.logicalValue() && a.expr() == b.expr() &&
        a.predRhs() == b.predRhs())
      return Truth::True;  // q(x) ∧ ¬q(x)
    return Truth::Unknown;
  }
  if (a.kind() == Atom::Kind::Forall || b.kind() == Atom::Kind::Forall) {
    // Context-free check: ∀bv∈[lo,up] (¬)q(f(bv)) clashes with an opposite
    // ArrayPred q(t) when f(bv) = t has a solution provably inside [lo,up]
    // (constant bounds and solution; the context-aware version lives in the
    // predicate simplifier).
    const Atom& fa = a.kind() == Atom::Kind::Forall ? a : b;
    const Atom& other = a.kind() == Atom::Kind::Forall ? b : a;
    if (other.kind() == Atom::Kind::ArrayPred && fa.predArray() == other.predArray() &&
        fa.logical() == other.logical() && fa.logicalValue() != other.logicalValue() &&
        fa.predRhs() == other.predRhs()) {
      if (auto t = solveForallInstance(fa, other.expr())) {
        auto lo = fa.forallLo().constantValue();
        auto up = fa.forallUp().constantValue();
        auto tc = t->constantValue();
        if (lo && up && tc && *lo <= *tc && *tc <= *up) return Truth::True;
      }
    }
    return Truth::Unknown;
  }
  if (a.kind() != b.kind()) return Truth::Unknown;
  // Syntactic fast paths.
  if (a == b.negated()) return Truth::True;
  const bool ra = isRealOp(a.op());
  const bool rb = isRealOp(b.op());
  if (ra || rb) {
    if (ra && rb) return realPairContradict(a, b);
    return Truth::Unknown;  // mixed integer/real: no shared theory
  }
  ConstraintSet cs;
  if (!a.addToConstraints(cs) || !b.addToConstraints(cs)) return Truth::Unknown;
  Truth t = cs.contradictory();
  return t == Truth::True ? Truth::True : Truth::Unknown;
  }();
  if (cache.enabled()) cache.store(QueryCache::Key(key.begin(), key.end()), result);
  return result;
}

Truth atomsExhaustive(const Atom& a, const Atom& b) {
  // a ∨ b is a tautology iff ¬a ∧ ¬b is unsatisfiable.
  return atomsContradict(a.negated(), b.negated());
}

Truth atomImplies(const Atom& a, const Atom& b) {
  if (a == b) return Truth::True;
  if (a.kind() == Atom::Kind::Rel && b.kind() == Atom::Kind::Rel && isRealOp(a.op()) &&
      isRealOp(b.op())) {
    Truth direct = realPairImplies(a, b);
    if (direct == Truth::True) return Truth::True;
  }
  // a => b iff a ∧ ¬b is unsatisfiable.
  return atomsContradict(a, b.negated());
}

}  // namespace panorama
