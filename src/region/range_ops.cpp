// Range set operations (§3.1 intersection case analysis, §5.1 step rules).
//
// max/min boundaries are never materialized: each ordering case becomes an
// explicit inequality in the piece's guard, and provable orderings (under the
// caller's guard context) prune cases eagerly — the "usually much simpler
// than the general formula" behaviour the paper describes.
#include <array>

#include "panorama/region/range.h"

namespace panorama {

namespace {

/// How two ranges' grids relate.
enum class GridRel {
  Aligned,   ///< same step, origins provably on the same grid
  Disjoint,  ///< same step, origins provably on different grids
  Cover,     ///< r2's grid is finer and contains r1's grid
  Unknown,
};

/// Polynomial divisibility of (a - b) by constant c.
bool diffDivisible(const SymExpr& a, const SymExpr& b, std::int64_t c) {
  return (a - b).divExact(c).has_value();
}

/// Grid normalization: the set-operation formulas assume a range's upper
/// bound lies on its own grid (lo + k*step); an off-grid upper like
/// (13 : 14 : 2) breaks the "+step" anchoring of subtraction remainders.
/// Rewrites the bound when possible, nullopt when undecidable.
std::optional<SymRange> gridNormalize(const SymRange& r) {
  auto c = r.step.constantValue();
  if (r.isPoint() || r.isUnknown() || (c && *c == 1)) return r;
  if (!c || *c <= 0) {
    // Symbolic step: on-grid only provable when (up - lo) divides evenly.
    return std::nullopt;
  }
  SymExpr d = r.up - r.lo;
  if (d.divExact(*c).has_value()) return r;
  if (auto dc = d.constantValue()) {
    if (*dc < 0) return r;  // empty range; bound position is irrelevant
    return SymRange{r.lo, r.up - (*dc % *c), r.step};
  }
  return std::nullopt;
}

GridRel classify(const SymRange& r1, const SymRange& r2) {
  const bool p1 = r1.isPoint();
  const bool p2 = r2.isPoint();
  auto s1 = r1.step.constantValue();
  auto s2 = r2.step.constantValue();

  // Points sit on any unit grid; on a coarser grid they need an alignment
  // proof against the other range's origin.
  if (p1 && p2) return GridRel::Aligned;
  if (p1) {
    if (s2 && *s2 == 1) return GridRel::Aligned;
    if (s2 && *s2 > 1) {
      if (diffDivisible(r1.lo, r2.lo, *s2)) return GridRel::Aligned;
      auto d = (r1.lo - r2.lo).constantValue();
      if (d && *d % *s2 != 0) return GridRel::Disjoint;
    }
    return GridRel::Unknown;
  }
  if (p2) {
    if (s1 && *s1 == 1) return GridRel::Aligned;
    if (s1 && *s1 > 1) {
      if (diffDivisible(r2.lo, r1.lo, *s1)) return GridRel::Aligned;
      auto d = (r2.lo - r1.lo).constantValue();
      if (d && *d % *s1 != 0) return GridRel::Disjoint;
    }
    return GridRel::Unknown;
  }

  if (s1 && s2) {
    if (*s1 == *s2) {
      if (*s1 == 1) return GridRel::Aligned;  // case 1
      if (diffDivisible(r1.lo, r2.lo, *s1)) return GridRel::Aligned;  // case 2, aligned
      auto d = (r1.lo - r2.lo).constantValue();
      if (d && *d % *s1 != 0) return GridRel::Disjoint;  // case 2, misaligned
      return GridRel::Unknown;
    }
    if (*s2 > 0 && *s1 > 0 && *s1 % *s2 == 0 && diffDivisible(r1.lo, r2.lo, *s2))
      return GridRel::Cover;  // case 4: r2's grid refines r1's
    return GridRel::Unknown;  // case 5
  }
  // case 3: symbolic but identical steps and identical origins behave as
  // aligned; identical steps with different origins are undecidable.
  if (r1.step == r2.step && r1.lo == r2.lo) return GridRel::Aligned;
  return GridRel::Unknown;
}

/// The effective common step of two grid-aligned ranges (points inherit the
/// other operand's step).
SymExpr commonStep(const SymRange& r1, const SymRange& r2) {
  if (r1.isPoint() && r2.isPoint()) return SymExpr::constant(1);
  if (r1.isPoint()) return r2.step;
  return r1.step;
}

/// Conjoins `atom` to `guard`, folding constants; returns false when the
/// piece is provably dead.
bool conjoin(Pred& guard, Atom atom) {
  Pred p = Pred::atom(std::move(atom));
  if (p.isFalse()) return false;
  guard = guard && p;
  return !guard.isFalse();
}

/// Enumerates the (lo-case × up-case) partition of §3.1's intersection
/// formula, pruning cases the context decides. The callback receives the
/// case guard plus the intersection bounds (ilo = max(l1,l2), iup =
/// min(u1,u2)) valid within that case.
template <typename Fn>
void forEachBoundCase(const SymRange& r1, const SymRange& r2, const CmpCtx& ctx, Fn&& fn) {
  const Truth tl = ctx.le(r1.lo, r2.lo);
  const Truth tu = ctx.le(r1.up, r2.up);
  for (int lc = 0; lc < 2; ++lc) {
    const bool loFirst = lc == 0;  // l1 <= l2 ?
    if ((loFirst && tl == Truth::False) || (!loFirst && tl == Truth::True)) continue;
    for (int uc = 0; uc < 2; ++uc) {
      const bool upFirst = uc == 0;  // u1 <= u2 ?
      if ((upFirst && tu == Truth::False) || (!upFirst && tu == Truth::True)) continue;
      Pred guard = Pred::makeTrue();
      if (tl == Truth::Unknown &&
          !conjoin(guard, loFirst ? Atom::le(r1.lo, r2.lo) : Atom::gt(r1.lo, r2.lo)))
        continue;
      if (tu == Truth::Unknown &&
          !conjoin(guard, upFirst ? Atom::le(r1.up, r2.up) : Atom::gt(r1.up, r2.up)))
        continue;
      const SymExpr& ilo = loFirst ? r2.lo : r1.lo;
      const SymExpr& iup = upFirst ? r1.up : r2.up;
      fn(std::move(guard), ilo, iup);
    }
  }
}

}  // namespace

CmpCtx ctxWith(const CmpCtx& ctx, const Pred& guard) {
  ConstraintSet cs = ctx.context();
  ConstraintSet units = guard.unitConstraints();
  for (const LinearConstraint& c : units.constraints()) cs.add(c);
  return ctx.withContext(std::move(cs));
}

Truth rangesDisjoint(const SymRange& r1, const SymRange& r2, const CmpCtx& ctx) {
  if (r1.isUnknown() || r2.isUnknown()) return Truth::Unknown;
  if (ctx.lt(r1.up, r2.lo) == Truth::True) return Truth::True;
  if (ctx.lt(r2.up, r1.lo) == Truth::True) return Truth::True;
  if (classify(r1, r2) == GridRel::Disjoint) return Truth::True;
  return Truth::Unknown;
}

RangeOpResult rangeIntersect(const SymRange& r1in, const SymRange& r2in, const CmpCtx& ctx) {
  // Best-effort grid normalization keeps produced pieces grid-true so that
  // later subtractions need not degrade.
  const SymRange r1 = gridNormalize(r1in).value_or(r1in);
  const SymRange r2 = gridNormalize(r2in).value_or(r2in);
  RangeOpResult out;
  if (r1.isUnknown() || r2.isUnknown()) {
    out.pieces.push_back({Pred::makeUnknown(), SymRange::unknown()});
    out.unknown = true;
    return out;
  }
  if (rangesDisjoint(r1, r2, ctx) == Truth::True) return out;  // empty

  // Point-point: a single equality guard beats the case machinery.
  if (r1.isPoint() && r2.isPoint()) {
    Truth eq = ctx.eq(r1.lo, r2.lo);
    if (eq == Truth::False) return out;
    Pred guard = eq == Truth::True ? Pred::makeTrue() : Pred::atom(Atom::eq(r1.lo, r2.lo));
    out.pieces.push_back({std::move(guard), r1});
    return out;
  }

  switch (classify(r1, r2)) {
    case GridRel::Disjoint:
      return out;
    case GridRel::Cover: {
      // r2's grid refines r1's: the intersection is r1 clipped to r2's
      // bounds. Only the fully-covered situation is resolved exactly.
      CmpCtx ectx = ctx;
      if (ectx.le(r2.lo, r1.lo) == Truth::True && ectx.le(r1.up, r2.up) == Truth::True) {
        out.pieces.push_back({Pred::makeTrue(), r1});
        return out;
      }
      out.pieces.push_back({Pred::makeUnknown(), SymRange::unknown()});
      out.unknown = true;
      return out;
    }
    case GridRel::Unknown: {
      out.pieces.push_back({Pred::makeUnknown(), SymRange::unknown()});
      out.unknown = true;
      return out;
    }
    case GridRel::Aligned:
      break;
  }

  const SymExpr s = commonStep(r1, r2);
  forEachBoundCase(r1, r2, ctx, [&](Pred guard, const SymExpr& ilo, const SymExpr& iup) {
    SymRange piece{ilo, iup, s};
    CmpCtx ectx = ctxWith(ctx, guard);
    Truth valid = ectx.le(ilo, iup);
    if (valid == Truth::False) return;
    if (valid == Truth::Unknown && !conjoin(guard, Atom::le(ilo, iup))) return;
    out.pieces.push_back({std::move(guard), std::move(piece)});
  });
  return out;
}

RangeOpResult rangeSubtract(const SymRange& r1in, const SymRange& r2in, const CmpCtx& ctx) {
  // The remainder formulas anchor at iup + step, which must land on the
  // common grid: both operands need grid-true upper bounds.
  std::optional<SymRange> r1n = gridNormalize(r1in);
  std::optional<SymRange> r2n = gridNormalize(r2in);
  if (!r1n || !r2n) {
    RangeOpResult out;
    if (r1in.isUnknown()) {
      out.pieces.push_back({Pred::makeUnknown(), SymRange::unknown()});
    } else {
      out.pieces.push_back({Pred::makeUnknown(), r1in});
    }
    out.unknown = true;
    return out;
  }
  const SymRange& r1 = *r1n;
  const SymRange& r2 = *r2n;
  RangeOpResult out;
  if (r1.isUnknown()) {
    out.pieces.push_back({Pred::makeUnknown(), SymRange::unknown()});
    out.unknown = true;
    return out;
  }
  if (r2.isUnknown()) {
    // Cannot kill anything reliably: keep r1 under Δ (over-approximation).
    out.pieces.push_back({Pred::makeUnknown(), r1});
    out.unknown = true;
    return out;
  }
  if (rangesDisjoint(r1, r2, ctx) == Truth::True) {
    out.pieces.push_back({Pred::makeTrue(), r1});
    return out;
  }

  if (r1.isPoint() && r2.isPoint()) {
    Truth eq = ctx.eq(r1.lo, r2.lo);
    if (eq == Truth::True) return out;  // removed entirely
    Pred guard = eq == Truth::False ? Pred::makeTrue() : Pred::atom(Atom::ne(r1.lo, r2.lo));
    out.pieces.push_back({std::move(guard), r1});
    return out;
  }

  GridRel rel = classify(r1, r2);
  if (rel == GridRel::Disjoint) {
    out.pieces.push_back({Pred::makeTrue(), r1});
    return out;
  }
  if (rel == GridRel::Cover) {
    CmpCtx ectx = ctx;
    if (ectx.le(r2.lo, r1.lo) == Truth::True && ectx.le(r1.up, r2.up) == Truth::True)
      return out;  // fully covered: empty difference
    rel = GridRel::Unknown;
  }
  if (rel == GridRel::Unknown) {
    out.pieces.push_back({Pred::makeUnknown(), r1});
    out.unknown = true;
    return out;
  }

  // Aligned: within each ordering case the intersection is (ilo : iup : s);
  // the difference keeps the left and right remainders of r1, or all of r1
  // when the intersection is empty in that case.
  const SymExpr s = commonStep(r1, r2);
  forEachBoundCase(r1, r2, ctx, [&](Pred guard, const SymExpr& ilo, const SymExpr& iup) {
    CmpCtx ectx = ctxWith(ctx, guard);
    Truth valid = ectx.le(ilo, iup);
    if (valid != Truth::False) {
      Pred nonempty = guard;
      bool alive = true;
      if (valid == Truth::Unknown) alive = conjoin(nonempty, Atom::le(ilo, iup));
      if (alive) {
        CmpCtx nctx = ctxWith(ctx, nonempty);
        // Left remainder (l1 : ilo - s : s), alive when l1 < ilo.
        Truth hasLeft = nctx.lt(r1.lo, ilo);
        if (hasLeft != Truth::False) {
          Pred g = nonempty;
          bool keep = hasLeft == Truth::True || conjoin(g, Atom::lt(r1.lo, ilo));
          if (keep) out.pieces.push_back({std::move(g), SymRange{r1.lo, ilo - s, s}});
        }
        // Right remainder (iup + s : u1 : s), alive when iup < u1.
        Truth hasRight = nctx.lt(iup, r1.up);
        if (hasRight != Truth::False) {
          Pred g = nonempty;
          bool keep = hasRight == Truth::True || conjoin(g, Atom::lt(iup, r1.up));
          if (keep) out.pieces.push_back({std::move(g), SymRange{iup + s, r1.up, s}});
        }
      }
    }
    if (valid != Truth::True) {
      // Empty-intersection branch of this case: nothing is removed.
      Pred g = std::move(guard);
      if (valid == Truth::Unknown && !conjoin(g, Atom::gt(ilo, iup))) return;
      out.pieces.push_back({std::move(g), r1});
    }
  });
  return out;
}

std::optional<SymRange> rangeUnionPair(const SymRange& r1, const SymRange& r2,
                                       const CmpCtx& ctx) {
  if (r1.isUnknown() || r2.isUnknown()) return std::nullopt;
  if (rangeContains(r1, r2, ctx) == Truth::True) return r1;
  if (rangeContains(r2, r1, ctx) == Truth::True) return r2;
  if (classify(r1, r2) != GridRel::Aligned) return std::nullopt;
  const SymExpr s = commonStep(r1, r2);
  // Merge requires provable overlap-or-adjacency in both directions (§5.1)
  // and a provable bound ordering so min/max resolve without case splits.
  if (ctx.le(r2.lo, r1.up + s) != Truth::True) return std::nullopt;
  if (ctx.le(r1.lo, r2.up + s) != Truth::True) return std::nullopt;
  SymExpr lo;
  SymExpr up;
  if (ctx.le(r1.lo, r2.lo) == Truth::True)
    lo = r1.lo;
  else if (ctx.le(r2.lo, r1.lo) == Truth::True)
    lo = r2.lo;
  else
    return std::nullopt;
  if (ctx.le(r1.up, r2.up) == Truth::True)
    up = r2.up;
  else if (ctx.le(r2.up, r1.up) == Truth::True)
    up = r1.up;
  else
    return std::nullopt;
  return SymRange{std::move(lo), std::move(up), s};
}

Truth rangeContains(const SymRange& outer, const SymRange& inner, const CmpCtx& ctx) {
  if (outer.isUnknown() || inner.isUnknown()) return Truth::Unknown;
  // classify(inner, outer) == Aligned: same grid. == Cover: outer's grid is
  // finer and includes every point of inner's grid. Either way, provable
  // bound ordering settles containment.
  GridRel rel = classify(inner, outer);
  if (rel != GridRel::Aligned && rel != GridRel::Cover) return Truth::Unknown;
  if (ctx.le(outer.lo, inner.lo) != Truth::True) return Truth::Unknown;
  if (ctx.le(inner.up, outer.up) != Truth::True) return Truth::Unknown;
  return Truth::True;
}

}  // namespace panorama
