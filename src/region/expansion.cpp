// The expansion function of §4.1: given a GAR parameterized by a loop index
// i with l <= i <= u, produce the union over all iterations.
//
//   * i-bounds are solved from the guard (unit clauses with ±1 coefficient,
//     or constant-divisible coefficients); max/min of competing bounds are
//     compiled into ordering-case guards, as everywhere else.
//   * A region dimension containing i is rewritten exactly when it is a
//     point moving affinely (yielding a strided range) or a unit-step
//     interval whose sweep is provably contiguous; otherwise the dimension
//     is marked Ω.
//   * Guard content about i that cannot be turned into interval bounds
//     (disequalities, disjunctions, non-affine atoms) is dropped and the
//     result tainted with Δ — a sound widening.
#include <algorithm>

#include "panorama/region/gar.h"

namespace panorama {

namespace {

struct ExtractedBounds {
  std::vector<SymExpr> lowers;  // candidate lower bounds on i (includes loop lo)
  std::vector<SymExpr> uppers;  // candidate upper bounds on i (includes loop up)
  Pred residual;                // guard clauses free of i
  bool inexact = false;         // some i-content was dropped (Δ)
  bool infeasible = false;      // an i-equation has no integer solution
};

/// Splits the guard into interval bounds on `i` plus the i-free residue.
ExtractedBounds extractIndexBounds(const Pred& guard, VarId i, bool allowBounds) {
  ExtractedBounds out;
  out.residual = guard.isUnknown() ? Pred::makeUnknown() : Pred::makeTrue();
  for (const Disjunct& clause : guard.clauses()) {
    bool mentionsI = false;
    for (const Atom& a : clause.atoms) mentionsI = mentionsI || a.containsVar(i);
    if (!mentionsI) {
      Pred keep;
      keep = Pred::makeTrue();
      for (const Atom& a : clause.atoms) {
        // Rebuild the clause as a Pred (or of atoms).
        keep = (&a == &clause.atoms.front()) ? Pred::atom(a) : (keep || Pred::atom(a));
      }
      out.residual = out.residual && keep;
      continue;
    }
    if (clause.atoms.size() != 1 || !allowBounds) {
      out.inexact = true;  // i hides in a disjunction: drop, taint
      continue;
    }
    const Atom& a = clause.atoms[0];
    if (a.kind() != Atom::Kind::Rel || !a.expr().isAffine()) {
      out.inexact = true;
      continue;
    }
    const std::int64_t coef = a.expr().affineCoeff(i);
    SymExpr rest = a.expr() - SymExpr::variable(i).mulConst(coef);  // a*i + rest
    switch (a.op()) {
      case RelOp::LE:
        if (coef == 1) {
          out.uppers.push_back(-rest);  // i <= -rest
        } else if (coef == -1) {
          out.lowers.push_back(rest);  // i >= rest
        } else if (auto rc = rest.constantValue()) {
          // a*i + c <= 0 with |a| > 1: floor/ceil on the constant.
          if (coef > 0) {
            std::int64_t q = -*rc >= 0 ? -*rc / coef : -((*rc + coef - 1) / coef);
            out.uppers.push_back(SymExpr::constant(q));  // i <= floor(-c/a)
          } else {
            std::int64_t a2 = -coef;
            std::int64_t q = *rc >= 0 ? (*rc + a2 - 1) / a2 : -((-*rc) / a2);
            out.lowers.push_back(SymExpr::constant(q));  // i >= ceil(c/-a)
          }
        } else {
          out.inexact = true;
        }
        break;
      case RelOp::EQ:
        if (coef == 1 || coef == -1) {
          SymExpr sol = coef == 1 ? -rest : rest;
          out.lowers.push_back(sol);
          out.uppers.push_back(std::move(sol));
        } else if (auto rc = rest.constantValue()) {
          if (*rc % coef != 0) {
            out.infeasible = true;  // no integer i satisfies the equation
            return out;
          }
          SymExpr sol = SymExpr::constant(-*rc / coef);
          out.lowers.push_back(sol);
          out.uppers.push_back(std::move(sol));
        } else {
          out.inexact = true;
        }
        break;
      case RelOp::NE:
        out.inexact = true;  // punching a hole in the interval: widen
        break;
      case RelOp::RLT:
      case RelOp::RLE:
      case RelOp::REQ:
      case RelOp::RNE:
        out.inexact = true;  // a real comparison cannot bound an integer index
        break;
    }
  }
  return out;
}

/// Expands one dimension that depends on `i`, with effective index interval
/// [L, U] (step `st`). Returns nullopt for Ω.
std::optional<SymRange> expandDim(const SymRange& dim, VarId i, const SymExpr& L,
                                  const SymExpr& U, const SymExpr& st, const CmpCtx& ctx) {
  if (dim.step.containsVar(i)) return std::nullopt;
  if (!dim.lo.isAffine() || !dim.up.isAffine()) return std::nullopt;
  const std::int64_t al = dim.lo.affineCoeff(i);
  const std::int64_t au = dim.up.affineCoeff(i);

  if (dim.isPoint()) {
    // Moving point a*i + b: an arithmetic progression with step |a|*st.
    const std::int64_t a = al;
    if (a == 0) return std::nullopt;  // i in a nonlinear disguise
    auto sc = st.constantValue();
    if (!sc || *sc <= 0) return std::nullopt;
    SymExpr Ueff = U;
    if (a < 0 && *sc != 1) {
      // A descending progression anchors at the *last* iterate, which must
      // sit on the iteration grid (an ascending one anchors at L and its
      // upper bound merely clips).
      SymExpr span = U - L;
      if (!span.divExact(*sc).has_value()) {
        auto spanC = span.constantValue();
        if (!spanC || *spanC < 0) return std::nullopt;
        Ueff = L + (*spanC / *sc) * *sc;
      }
    }
    SymExpr atL = dim.lo.substitute(i, L);
    SymExpr atU = dim.lo.substitute(i, Ueff);
    SymExpr step = st.mulConst(a > 0 ? a : -a);
    if (a > 0) return SymRange{std::move(atL), std::move(atU), std::move(step)};
    return SymRange{std::move(atU), std::move(atL), std::move(step)};
  }

  // Sweeping interval: handled exactly for unit element step only, and for
  // non-unit loop steps only when U is provably on the iteration grid (else
  // substituting i := U would overshoot the last real iterate).
  if (!(dim.step == SymExpr::constant(1))) return std::nullopt;
  if (auto sc = st.constantValue(); sc && *sc != 1 && !(U - L).divExact(*sc).has_value())
    return std::nullopt;
  if (!st.constantValue().has_value()) return std::nullopt;

  // Per-iteration validity and inter-iteration contiguity, proven with i as
  // a universally quantified symbol bounded by [L, U].
  ConstraintSet cs = ctx.context();
  SymExpr I = SymExpr::variable(i);
  if (!cs.addExprLE0(L - I) || !cs.addExprLE0(I - U)) return std::nullopt;
  CmpCtx ictx = ctx.withContext(cs);
  if (ictx.le(dim.lo, dim.up) != Truth::True) return std::nullopt;

  ConstraintSet cs2 = ctx.context();
  if (!cs2.addExprLE0(L - I) || !cs2.addExprLE0(I + st - U)) return std::nullopt;
  CmpCtx cctx = ctx.withContext(cs2);
  SymExpr loNext = dim.lo.substitute(i, I + st);
  SymExpr upNext = dim.up.substitute(i, I + st);
  if (cctx.le(loNext, dim.up + 1) != Truth::True) return std::nullopt;
  if (cctx.le(dim.lo, upNext + 1) != Truth::True) return std::nullopt;

  SymExpr newLo = al >= 0 ? dim.lo.substitute(i, L) : dim.lo.substitute(i, U);
  SymExpr newUp = au >= 0 ? dim.up.substitute(i, U) : dim.up.substitute(i, L);
  return SymRange{std::move(newLo), std::move(newUp), SymExpr::constant(1)};
}

void expandGar(const Gar& gar, const LoopBounds& bounds, const CmpCtx& ctx, GarList& out,
               int splitDepth = 4);

/// Pre-pass: [C1 ∨ C2, R] = [C1, R] ∪ [C2, R], so a disjunctive clause (or a
/// unit disequality, split as < ∨ >) that mentions the index can be expanded
/// exactly piece by piece instead of degrading to Δ. This is what keeps the
/// Figure 5 derivation exact.
bool splitIndexClause(const Gar& gar, VarId i, const LoopBounds& bounds, const CmpCtx& ctx,
                      GarList& out, int splitDepth) {
  if (splitDepth <= 0 || gar.guard().isUnknown()) return false;
  const auto& clauses = gar.guard().clauses();
  for (std::size_t k = 0; k < clauses.size(); ++k) {
    const Disjunct& clause = clauses[k];
    bool mentionsI = false;
    for (const Atom& a : clause.atoms) mentionsI = mentionsI || a.containsVar(i);
    if (!mentionsI) continue;
    std::vector<Atom> branches;
    if (clause.atoms.size() > 1 && clause.atoms.size() <= 4) {
      branches = clause.atoms;
    } else if (clause.atoms.size() == 1 && clause.atoms[0].kind() == Atom::Kind::Rel &&
               clause.atoms[0].op() == RelOp::NE) {
      const SymExpr& e = clause.atoms[0].expr();
      branches.push_back(Atom::rel(e + 1, RelOp::LE));   // e < 0
      branches.push_back(Atom::rel(-e + 1, RelOp::LE));  // e > 0
    } else {
      continue;
    }
    // Rebuild the guard without this clause.
    Pred rest = Pred::makeTrue();
    for (std::size_t m = 0; m < clauses.size(); ++m) {
      if (m == k) continue;
      Pred cl = Pred::makeFalse();
      for (const Atom& a : clauses[m].atoms) cl = cl || Pred::atom(a);
      rest = rest && cl;
    }
    for (const Atom& branch : branches) {
      Pred guard = rest && Pred::atom(branch);
      guard.simplify();
      if (guard.isFalse()) continue;
      expandGar(Gar::make(std::move(guard), gar.region(), ctx.psi()), bounds, ctx, out,
                 splitDepth - 1);
    }
    return true;
  }
  return false;
}

void expandGar(const Gar& gar, const LoopBounds& bounds, const CmpCtx& ctx, GarList& out,
               int splitDepth) {
  VarId i = bounds.index;
  if (gar.guard().containsVar(i) && splitIndexClause(gar, i, bounds, ctx, out, splitDepth))
    return;

  // Normalize the loop direction. The iteration set of (lo, up, st) is
  // anchored at lo; a reversed loop must stay anchored at its own first
  // iterate, so flipping is exact only when (lo - up) sits on the grid.
  SymExpr lo = bounds.lo;
  SymExpr up = bounds.up;
  SymExpr st = bounds.step;
  bool inexact = false;
  if (auto sc = st.constantValue()) {
    if (*sc == 0) {
      out.add(Gar::omega(gar.array(), gar.region().rank()));
      return;
    }
    if (*sc < 0) {
      const std::int64_t mag = -*sc;
      SymExpr span = lo - up;  // >= 0 on any executed iteration
      std::swap(lo, up);
      st = SymExpr::constant(mag);
      if (mag != 1 && !span.divExact(mag).has_value()) {
        if (auto spanC = span.constantValue()) {
          // Anchor at the true smallest iterate lo0 - floor(span/st)*st.
          std::int64_t offs = (*spanC % mag + mag) % mag;
          lo = lo + offs;
        } else {
          st = SymExpr::constant(1);  // widen to the full interval
          inexact = true;
        }
      }
    }
  } else {
    // Symbolic step: iteration grid unknowable; widen to the full interval.
    st = SymExpr::constant(1);
    inexact = true;
  }
  const bool unitStep = st == SymExpr::constant(1);

  // Index-free GARs still occur only when the loop executes at least once.
  if (!gar.containsVar(i)) {
    Truth runs = ctx.le(lo, up);
    if (runs == Truth::False) return;
    if (runs == Truth::True)
      out.add(gar);
    else
      out.add(gar.withGuard(Pred::atom(Atom::le(lo, up))));
    return;
  }

  ExtractedBounds eb = extractIndexBounds(gar.guard(), i, /*allowBounds=*/unitStep);
  if (eb.infeasible) return;  // the guard admits no iteration at all
  // With a non-unit step, guard-extracted bounds may fall off the iteration
  // grid; extractIndexBounds already dropped them (allowBounds=false) and
  // flagged the loss.
  inexact = inexact || eb.inexact;

  std::vector<SymExpr> lowers = std::move(eb.lowers);
  std::vector<SymExpr> uppers = std::move(eb.uppers);
  lowers.insert(lowers.begin(), lo);
  uppers.insert(uppers.begin(), up);
  if (lowers.size() * uppers.size() > 9) {
    lowers.assign(1, lo);  // too many competing bounds: widen to the loop's
    uppers.assign(1, up);
    inexact = true;
  }

  for (const SymExpr& L : lowers) {
    for (const SymExpr& U : uppers) {
      // Case guard: L is the maximal lower bound, U the minimal upper bound.
      Pred caseGuard = eb.residual;
      bool dead = false;
      for (const SymExpr& L2 : lowers) {
        if (&L2 == &L) continue;
        Truth t = ctx.ge(L, L2);
        if (t == Truth::False) dead = true;
        if (t == Truth::Unknown) caseGuard = caseGuard && Pred::atom(Atom::ge(L, L2));
      }
      for (const SymExpr& U2 : uppers) {
        if (&U2 == &U) continue;
        Truth t = ctx.le(U, U2);
        if (t == Truth::False) dead = true;
        if (t == Truth::Unknown) caseGuard = caseGuard && Pred::atom(Atom::le(U, U2));
      }
      if (dead) continue;
      // Nonemptiness of the iteration interval.
      Truth nonempty = ctx.le(L, U);
      if (nonempty == Truth::False) continue;
      if (nonempty == Truth::Unknown) caseGuard = caseGuard && Pred::atom(Atom::le(L, U));
      caseGuard.simplify();
      if (caseGuard.isFalse()) continue;

      CmpCtx ectx = ctxWith(ctx, caseGuard);
      std::vector<SymRange> dims;
      dims.reserve(gar.region().rank());
      int dimsWithI = 0;
      for (const SymRange& d : gar.region().dims())
        if (d.containsVar(i)) ++dimsWithI;
      for (const SymRange& d : gar.region().dims()) {
        if (!d.containsVar(i)) {
          dims.push_back(d);
          continue;
        }
        if (dimsWithI > 1) {  // §4.1: i in several dimensions ⇒ all Ω
          dims.push_back(SymRange::unknown());
          continue;
        }
        auto expanded = expandDim(d, i, L, U, st, ectx);
        dims.push_back(expanded ? std::move(*expanded) : SymRange::unknown());
      }
      Pred guard = inexact ? caseGuard && Pred::makeUnknown() : std::move(caseGuard);
      out.add(Gar::make(std::move(guard), Region(gar.array(), dims), ctx.psi()));
    }
  }
}

}  // namespace

GarList expandByIndex(const GarList& list, const LoopBounds& bounds, const CmpCtx& ctx) {
  GarList out;
  for (const Gar& g : list.gars()) expandGar(g, bounds, ctx, out);
  simplifyGarList(out, ctx, nullptr);
  return out;
}

}  // namespace panorama
