#include "panorama/region/gar.h"

#include <algorithm>

namespace panorama {

Gar Gar::make(Pred guard, Region region, const PsiDims& psi) {
  Gar g;
  g.guard_ = conjoined(std::move(guard), region, psi);
  g.guard_.simplify();
  g.region_ = region;
  return g;
}

Pred Gar::conjoined(Pred guard, const Region& region, const PsiDims& psi) {
  guard = std::move(guard) && region.validity();
  // ψ-guarded pieces carry their element-coordinate bounds explicitly, so
  // guard-level (un)satisfiability checks see the region extent (the same
  // discipline §3 imposes for range-validity conditions).
  const VarId psis[2] = {psi.dim1, psi.dim2};
  for (int d = 0; d < 2; ++d) {
    if (psis[d].isValid() && guard.containsVar(psis[d]) && region.rank() > d &&
        !region.dims()[d].isUnknown()) {
      SymExpr p = SymExpr::variable(psis[d]);
      guard = guard && Pred::atom(Atom::le(region.dims()[d].lo, p)) &&
              Pred::atom(Atom::le(p, region.dims()[d].up));
    }
  }
  return guard;
}

Gar Gar::omega(ArrayId array, int rank) {
  Gar g;
  g.guard_ = Pred::makeUnknown();
  g.region_ = Region(array, std::vector<SymRange>(std::max(rank, 1), SymRange::unknown()));
  return g;
}

Gar Gar::substituted(VarId v, const SymExpr& r) const {
  Gar g;
  g.guard_ = guard_.substituted(v, r);
  g.region_ = region_.substituted(v, r);
  return g;
}

Gar Gar::substituted(const std::map<VarId, SymExpr>& r) const {
  Gar g;
  g.guard_ = guard_.substituted(r);
  g.region_ = region_.substituted(r);
  return g;
}

bool Gar::containsVar(VarId v) const {
  return guard_.containsVar(v) || region_.containsVar(v);
}

void Gar::collectVars(std::vector<VarId>& out) const {
  guard_.collectVars(out);
  region_.collectVars(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

Gar Gar::withGuard(const Pred& p) const {
  Gar g;
  g.guard_ = guard_ && p;
  g.guard_.simplify();
  g.region_ = region_;
  return g;
}

std::optional<std::set<std::vector<std::int64_t>>> Gar::enumerate(
    const Binding& binding, std::size_t maxCount) const {
  auto g = guard_.evaluate(binding);
  if (!g) return std::nullopt;
  if (!*g) return std::set<std::vector<std::int64_t>>{};
  return region_.enumerate(binding, maxCount);
}

std::string Gar::str(const SymbolTable& symtab, const ArrayTable& arrays) const {
  // Built by append: operator+ chains over temporaries trip GCC 12's
  // spurious -Wrestrict on the inlined char_traits copy (PR 105329).
  std::string out = "[";
  out += guard_.str(symtab);
  out += ", ";
  out += region_.str(symtab, arrays);
  out += ']';
  return out;
}

Gar Gar::fromParts(Pred guard, Region region) {
  Gar g;
  g.guard_ = std::move(guard);
  g.region_ = std::move(region);
  return g;
}

GarList GarList::single(Gar g) {
  GarList l;
  l.add(std::move(g));
  return l;
}

void GarList::add(Gar g) {
  if (g.isEmpty()) return;
  gars_.push_back(std::move(g));
}

void GarList::append(const GarList& other) {
  for (const Gar& g : other.gars_) add(g);
}

GarList GarList::withGuard(const Pred& p) const {
  GarList out;
  if (p.isFalse()) return out;
  for (const Gar& g : gars_) out.add(g.withGuard(p));
  return out;
}

GarList GarList::substituted(VarId v, const SymExpr& r) const {
  GarList out;
  for (const Gar& g : gars_) out.add(g.substituted(v, r));
  return out;
}

GarList GarList::substituted(const std::map<VarId, SymExpr>& r) const {
  GarList out;
  for (const Gar& g : gars_) out.add(g.substituted(r));
  return out;
}

bool GarList::containsVar(VarId v) const {
  return std::any_of(gars_.begin(), gars_.end(),
                     [&](const Gar& g) { return g.containsVar(v); });
}

std::vector<ArrayId> GarList::arrays() const {
  std::vector<ArrayId> out;
  for (const Gar& g : gars_) out.push_back(g.array());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

GarList GarList::forArray(ArrayId array) const {
  GarList out;
  for (const Gar& g : gars_)
    if (g.array() == array) out.add(g);
  return out;
}

std::string GarList::str(const SymbolTable& symtab, const ArrayTable& arrays) const {
  if (gars_.empty()) return "{}";
  std::string out;
  for (std::size_t i = 0; i < gars_.size(); ++i) {
    if (i) out += " U ";
    out += gars_[i].str(symtab, arrays);
  }
  return out;
}

std::optional<std::set<std::vector<std::int64_t>>> GarList::enumerate(
    ArrayId array, const Binding& binding, std::size_t maxCount) const {
  std::set<std::vector<std::int64_t>> out;
  for (const Gar& g : gars_) {
    if (g.array() != array) continue;
    auto elems = g.enumerate(binding, maxCount);
    if (!elems) return std::nullopt;
    out.insert(elems->begin(), elems->end());
    if (out.size() > maxCount) return std::nullopt;
  }
  return out;
}

}  // namespace panorama
