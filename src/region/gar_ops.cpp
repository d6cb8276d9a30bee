// GAR set operations (§3.1): union, intersection and difference over lists,
// with the nested-GAR recombination [[P, Tlist]] realized by conjoining P
// into every produced piece's guard.
#include <algorithm>

#include "panorama/region/gar.h"

namespace panorama {

namespace {

/// Size valve for difference chains: beyond this, remaining subtrahends are
/// skipped and the piece keeps a Δ guard (refuses to kill — sound).
constexpr std::size_t kMaxListSize = 48;

/// T1 ∩ T2 for single GARs.
GarList garIntersectOne(const Gar& a, const Gar& b, const CmpCtx& ctx) {
  GarList out;
  if (a.array() != b.array()) return out;
  Pred g = a.guard() && b.guard();
  g.simplify();
  if (g.isFalse()) return out;
  CmpCtx ectx = ctxWith(ctx, g);
  RegionOpResult pieces = regionIntersect(a.region(), b.region(), ectx);
  for (GuardedRegion& piece : pieces.pieces)
    out.add(Gar::make(g && piece.guard, std::move(piece.region), ctx.psi()));
  return out;
}

/// T1 − T2 for single GARs: [[P1 ∧ P2, R1 − R2]] ∪ [P1 ∧ ¬P2, R1].
GarList garSubtractOne(const Gar& a, const Gar& b, const CmpCtx& ctx) {
  GarList out;
  if (a.array() != b.array()) {
    out.add(a);
    return out;
  }
  // Kill-safety: only an exact subtrahend region may remove elements. An
  // inexact guard is handled below through ¬P2 degrading to Δ; an Ω region
  // is handled inside rangeSubtract (keeps r1 under Δ).
  Pred both = a.guard() && b.guard();
  both.simplify();
  if (!both.isFalse()) {
    CmpCtx ectx = ctxWith(ctx, both);
    RegionOpResult diff = regionSubtract(a.region(), b.region(), ectx);
    for (GuardedRegion& piece : diff.pieces)
      out.add(Gar::make(both && piece.guard, std::move(piece.region), ctx.psi()));
  }
  Pred notB = !b.guard();
  Pred remainder = a.guard() && notB;
  remainder.simplify();
  if (!remainder.isFalse()) out.add(Gar::make(std::move(remainder), a.region(), ctx.psi()));
  return out;
}

}  // namespace

GarList garUnion(const GarList& a, const GarList& b, const CmpCtx& ctx,
                 const ArrayTable* arrays) {
  GarList out = a;
  out.append(b);
  simplifyGarList(out, ctx, arrays);
  return out;
}

GarList garIntersect(const GarList& a, const GarList& b, const CmpCtx& ctx) {
  GarList out;
  for (const Gar& ga : a.gars())
    for (const Gar& gb : b.gars()) out.append(garIntersectOne(ga, gb, ctx));
  simplifyGarList(out, ctx, nullptr);
  return out;
}

GarList garSubtract(const GarList& a, const GarList& b, const CmpCtx& ctx) {
  GarList out;
  for (const Gar& ga : a.gars()) {
    GarList current = GarList::single(ga);
    for (const Gar& gb : b.gars()) {
      if (current.empty()) break;
      GarList next;
      bool overflowed = false;
      for (const Gar& piece : current.gars()) {
        if (next.size() > kMaxListSize) {
          overflowed = true;
        }
        if (overflowed) {
          // Stop refining: keep the piece, tainted, so nothing is over-killed.
          next.add(piece.withGuard(Pred::makeUnknown()));
          continue;
        }
        next.append(garSubtractOne(piece, gb, ctx));
      }
      current = std::move(next);
      simplifyGarList(current, ctx, nullptr);
    }
    out.append(current);
  }
  simplifyGarList(out, ctx, nullptr);
  return out;
}

Truth garIntersectionEmpty(const GarList& a, const GarList& b, const CmpCtx& ctx) {
  for (const Gar& ga : a.gars()) {
    for (const Gar& gb : b.gars()) {
      if (ga.array() != gb.array()) continue;
      Pred g = ga.guard() && gb.guard();
      g.simplify();
      if (g.isFalse()) continue;
      CmpCtx ectx = ctxWith(ctx, g);
      if (regionsDisjoint(ga.region(), gb.region(), ectx) == Truth::True) continue;
      // Try the materialized intersection: all pieces must die.
      GarList inter = garIntersectOne(ga, gb, ctx);
      if (!inter.empty()) return Truth::Unknown;
    }
  }
  return Truth::True;
}

}  // namespace panorama
