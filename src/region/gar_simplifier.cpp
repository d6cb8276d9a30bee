// The GAR simplifier (§5.2): removes empty and redundant GARs, merges
// same-region GARs by OR-ing guards, merges adjacent regions under equal
// guards, and applies the §5.3 special cases for unknown components
// (Ω absorbed by a whole-array member).
#include <algorithm>

#include "panorama/region/gar.h"

namespace panorama {

namespace {

/// Does `g` cover the whole declared array with certainty? (guard exactly
/// true, region contains the declared shape)
bool coversWholeArray(const Gar& g, const CmpCtx& ctx, const ArrayTable& arrays) {
  if (!g.guard().isTrue()) return false;
  const ArrayShape& shape = arrays.shape(g.array());
  if (shape.declaredDims.empty() || shape.rank() != g.region().rank()) return false;
  return regionContains(g.region(), Region(g.array(), shape.declaredDims), ctx) == Truth::True;
}

}  // namespace

void simplifyGarList(GarList& list, const CmpCtx& ctx, const ArrayTable* arrays) {
  // Works on the list's own vector, and each pass compacts in place.
  std::vector<Gar>& gars = list.gars_;

  // Pass 1: guard simplification and dead-piece removal. Re-making a member
  // would simplify its guard conjoined with its region's validity (and ψ
  // bounds); when the guard is already simplified and already holds those,
  // that is the member itself, so it is kept as it is.
  {
    std::size_t kept = 0;
    for (Gar& g : gars) {
      Pred guard = g.guard();
      guard.simplify();
      if (guard.isFalse()) continue;
      if (guard == g.guard() && Gar::conjoined(guard, g.region(), ctx.psi()) == guard) {
        gars[kept++] = g;
        continue;
      }
      gars[kept++] = Gar::make(std::move(guard), g.region(), ctx.psi());
    }
    gars.resize(kept);
  }

  // Pass 2: merge same-region members ([P1,R] ∪ [P2,R] = [P1 ∨ P2, R]) and
  // adjacent regions under equal guards; iterate to a (bounded) fixpoint.
  bool changed = true;
  int rounds = 0;
  while (changed && ++rounds <= 8) {
    changed = false;
    for (std::size_t i = 0; i < gars.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < gars.size() && !changed; ++j) {
        if (gars[i].array() != gars[j].array()) continue;
        if (gars[i].region() == gars[j].region()) {
          Pred merged = gars[i].guard() || gars[j].guard();
          merged.simplify();
          Gar g = Gar::make(std::move(merged), gars[i].region(), ctx.psi());
          gars.erase(gars.begin() + j);
          gars[i] = std::move(g);
          changed = true;
          break;
        }
        if (gars[i].guard() == gars[j].guard() && !gars[i].guard().isUnknown()) {
          CmpCtx ectx = ctxWith(ctx, gars[i].guard());
          if (auto merged = regionUnionPair(gars[i].region(), gars[j].region(), ectx)) {
            Gar g = Gar::make(gars[i].guard(), std::move(*merged), ctx.psi());
            gars.erase(gars.begin() + j);
            gars[i] = std::move(g);
            changed = true;
            break;
          }
        }
      }
    }
  }

  // Pass 3: subsumption — drop [P1,R1] when another member [P2,R2] has
  // P1 => P2 and R2 ⊇ R1 (checked under P1's own constraints).
  {
    std::vector<bool> drop(gars.size(), false);
    for (std::size_t i = 0; i < gars.size(); ++i) {
      if (drop[i]) continue;
      for (std::size_t j = 0; j < gars.size(); ++j) {
        if (i == j || drop[j] || drop[i]) continue;
        if (gars[i].array() != gars[j].array()) continue;
        // Ω absorption (§5.3): an unknown member is subsumed by a certain
        // whole-array member.
        if (arrays && gars[i].isOmega() && coversWholeArray(gars[j], ctx, *arrays)) {
          drop[i] = true;
          continue;
        }
        if (gars[i].region().hasUnknownDim()) continue;  // can't prove containment
        if (gars[i].guard().implies(gars[j].guard()) != Truth::True) continue;
        CmpCtx ectx = ctxWith(ctx, gars[i].guard());
        if (regionContains(gars[j].region(), gars[i].region(), ectx) == Truth::True)
          drop[i] = true;
      }
    }
    // Compact the survivors, leaving out the pieces whose guard became
    // False along the way (what GarList::add would refuse).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < gars.size(); ++i) {
      if (drop[i] || gars[i].isEmpty()) continue;
      if (kept != i) gars[kept] = std::move(gars[i]);
      ++kept;
    }
    gars.resize(kept);
  }
}

}  // namespace panorama
