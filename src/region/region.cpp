#include "panorama/region/region.h"

#include <algorithm>

namespace panorama {

ArrayId ArrayTable::intern(std::string name, std::vector<SymRange> declaredDims) {
  for (std::size_t i = 0; i < shapes_.size(); ++i)
    if (shapes_[i].name == name) return ArrayId{static_cast<std::uint32_t>(i)};
  shapes_.push_back(ArrayShape{std::move(name), std::move(declaredDims)});
  return ArrayId{static_cast<std::uint32_t>(shapes_.size() - 1)};
}

ArrayId ArrayTable::internOrUpdate(std::string name, std::vector<SymRange> declaredDims) {
  if (std::optional<ArrayId> id = lookup(name)) {
    shapes_[id->value].declaredDims = std::move(declaredDims);
    return *id;
  }
  return intern(std::move(name), std::move(declaredDims));
}

std::optional<ArrayId> ArrayTable::lookup(std::string_view name) const {
  for (std::size_t i = 0; i < shapes_.size(); ++i)
    if (shapes_[i].name == name) return ArrayId{static_cast<std::uint32_t>(i)};
  return std::nullopt;
}

namespace {

std::size_t hashRegion(ArrayId array, std::span<const SymRange> dims) {
  std::size_t h = array.value;
  for (const SymRange& d : dims)
    h = ((h * 131 + d.lo.hashValue()) * 131 + d.up.hashValue()) * 131 + d.step.hashValue();
  return h * 131 + dims.size();
}

/// The calling thread's dims buffer, emptied. Rebuilding a region that is
/// already interned through it allocates nothing; nothing may take it again
/// between filling it and interning it.
std::vector<SymRange>& dimsScratch() {
  thread_local std::vector<SymRange> scratch;
  scratch.clear();
  return scratch;
}

}  // namespace

Region::Region() {
  static const detail::RegionNode* none = Region(ArrayId{}, {}).node_;
  node_ = none;
}

Region::Region(ArrayId array, std::span<const SymRange> dims) {
  const std::size_t h = hashRegion(array, dims);
  node_ = &RegionTable::global().intern(
      h,
      [&](const detail::RegionNode& n) {
        return n.hash == h && n.array == array &&
               std::equal(n.dims.begin(), n.dims.end(), dims.begin(), dims.end());
      },
      // Runs under the region shard's lock: interns into the predicate arena
      // and the atom table only, never into this table.
      [&](detail::RegionNode& n, std::uint64_t id) {
        n.array = array;
        n.dims.assign(dims.begin(), dims.end());
        n.unknownDim = std::any_of(dims.begin(), dims.end(),
                                   [](const SymRange& r) { return r.isUnknown(); });
        for (const SymRange& r : dims) n.validity = n.validity && r.validity();
        n.hash = h;
        n.id = id;
        return sizeof(detail::RegionNode) + n.dims.capacity() * sizeof(SymRange);
      });
}

Region Region::withDim(int d, const SymRange& r) const {
  std::vector<SymRange>& out = dimsScratch();
  out.assign(dims().begin(), dims().end());
  out[d] = r;
  return Region(array(), out);
}

Region Region::substituted(VarId v, const SymExpr& r) const {
  std::vector<SymRange>& out = dimsScratch();
  for (const SymRange& d : dims()) out.push_back(d.substituted(v, r));
  return Region(array(), out);
}

Region Region::substituted(const std::map<VarId, SymExpr>& r) const {
  std::vector<SymRange>& out = dimsScratch();
  for (const SymRange& d : dims()) out.push_back(d.substituted(r));
  return Region(array(), out);
}

bool Region::containsVar(VarId v) const {
  return std::any_of(dims().begin(), dims().end(),
                     [&](const SymRange& r) { return r.containsVar(v); });
}

void Region::collectVars(std::vector<VarId>& out) const {
  for (const SymRange& d : dims()) d.collectVars(out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::optional<std::set<std::vector<std::int64_t>>> Region::enumerate(
    const Binding& binding, std::size_t maxCount) const {
  std::vector<std::vector<std::int64_t>> perDim;
  std::size_t total = 1;
  for (const SymRange& d : dims()) {
    auto vals = d.enumerate(binding, maxCount);
    if (!vals) return std::nullopt;
    if (vals->empty()) return std::set<std::vector<std::int64_t>>{};
    total *= vals->size();
    if (total > maxCount) return std::nullopt;
    perDim.push_back(std::move(*vals));
  }
  std::set<std::vector<std::int64_t>> out;
  std::vector<std::size_t> idx(perDim.size(), 0);
  while (true) {
    std::vector<std::int64_t> tuple(perDim.size());
    for (std::size_t k = 0; k < perDim.size(); ++k) tuple[k] = perDim[k][idx[k]];
    out.insert(std::move(tuple));
    std::size_t k = 0;
    for (; k < perDim.size(); ++k) {
      if (++idx[k] < perDim[k].size()) break;
      idx[k] = 0;
    }
    if (k == perDim.size()) break;
    if (perDim.empty()) break;
  }
  if (perDim.empty()) out.insert({});
  return out;
}

std::string Region::str(const SymbolTable& symtab, const ArrayTable& arrays) const {
  std::string out = arrays.name(array()) + "(";
  for (int i = 0; i < rank(); ++i) {
    if (i) out += ", ";
    out += dims()[i].str(symtab);
  }
  out += ")";
  return out;
}

}  // namespace panorama
