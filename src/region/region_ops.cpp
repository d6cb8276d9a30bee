// Multidimensional region operations, built by lifting the guarded range
// operations dimension-wise (§3.1).
#include <algorithm>

#include "panorama/region/region.h"

namespace panorama {

namespace {

/// Valve on the cartesian recombination: beyond this many pieces the result
/// degrades to unknown rather than exploding.
constexpr std::size_t kMaxPieces = 64;

void pushPiece(RegionOpResult& out, Pred guard, Region region) {
  if (guard.isFalse()) return;
  out.pieces.push_back({std::move(guard), std::move(region)});
}

}  // namespace

Truth regionsDisjoint(const Region& r1, const Region& r2, const CmpCtx& ctx) {
  if (r1.array() != r2.array()) return Truth::True;
  if (r1.rank() != r2.rank()) return Truth::Unknown;
  for (int i = 0; i < r1.rank(); ++i)
    if (rangesDisjoint(r1.dims()[i], r2.dims()[i], ctx) == Truth::True) return Truth::True;
  return Truth::Unknown;
}

Truth regionContains(const Region& outer, const Region& inner, const CmpCtx& ctx) {
  if (outer.array() != inner.array() || outer.rank() != inner.rank()) return Truth::Unknown;
  for (int i = 0; i < outer.rank(); ++i)
    if (rangeContains(outer.dims()[i], inner.dims()[i], ctx) != Truth::True)
      return Truth::Unknown;
  return Truth::True;
}

RegionOpResult regionIntersect(const Region& r1, const Region& r2, const CmpCtx& ctx) {
  RegionOpResult out;
  if (r1.array() != r2.array() || r1.rank() != r2.rank()) return out;  // disjoint: empty

  // Per-dimension intersections first; an empty dimension empties the whole
  // intersection (the ∃i Di = ∅ case of §3.1).
  std::vector<RangeOpResult> perDim;
  perDim.reserve(r1.rank());
  for (int i = 0; i < r1.rank(); ++i) {
    RangeOpResult d = rangeIntersect(r1.dims()[i], r2.dims()[i], ctx);
    if (d.pieces.empty()) return out;
    perDim.push_back(std::move(d));
  }

  // Cartesian recombination of the guarded pieces: partial products keep
  // their dimensions unbuilt, and only the full ones become regions.
  struct Partial {
    Pred guard;
    std::vector<SymRange> dims;
  };
  std::vector<Partial> acc(1);
  for (RangeOpResult& d : perDim) {
    out.unknown = out.unknown || d.unknown;
    std::vector<Partial> next;
    for (Partial& partial : acc) {
      for (const GuardedRange& piece : d.pieces) {
        Pred g = partial.guard && piece.guard;
        if (g.isFalse()) continue;
        std::vector<SymRange> dims = partial.dims;
        dims.push_back(piece.range);
        next.push_back({std::move(g), std::move(dims)});
      }
    }
    acc = std::move(next);
    if (acc.size() > kMaxPieces) {
      out.pieces.clear();
      pushPiece(out, Pred::makeUnknown(),
                Region(r1.array(), std::vector<SymRange>(r1.rank(), SymRange::unknown())));
      out.unknown = true;
      return out;
    }
  }
  out.pieces.reserve(acc.size());
  for (Partial& partial : acc)
    out.pieces.push_back({std::move(partial.guard), Region(r1.array(), partial.dims)});
  return out;
}

namespace {

/// Recursive peel over dimensions d..m of §3.1's difference formula:
///   R1(d..) − R2(d..) = (r1[d] − r2[d], tail of R1)
///                     ∪ (r1[d] ∩ r2[d], R1(d+1..) − R2(d+1..))
void subtractDims(const Region& r1, const Region& r2, int d, const CmpCtx& ctx,
                  const Pred& guard, std::vector<SymRange>& prefix, RegionOpResult& out) {
  const int m = r1.rank();
  RangeOpResult diff = rangeSubtract(r1.dims()[d], r2.dims()[d], ctx);
  out.unknown = out.unknown || diff.unknown;
  for (GuardedRange& piece : diff.pieces) {
    Pred g = guard && piece.guard;
    if (g.isFalse()) continue;
    prefix.push_back(piece.range);
    prefix.insert(prefix.end(), r1.dims().begin() + d + 1, r1.dims().end());
    pushPiece(out, std::move(g), Region(r1.array(), prefix));
    prefix.resize(d);
  }
  if (d + 1 >= m) return;
  RangeOpResult inter = rangeIntersect(r1.dims()[d], r2.dims()[d], ctx);
  out.unknown = out.unknown || inter.unknown;
  for (GuardedRange& piece : inter.pieces) {
    Pred g = guard && piece.guard;
    if (g.isFalse()) continue;
    prefix.push_back(piece.range);
    subtractDims(r1, r2, d + 1, ctx, g, prefix, out);
    prefix.pop_back();
    if (out.pieces.size() > kMaxPieces) return;
  }
}

}  // namespace

RegionOpResult regionSubtract(const Region& r1, const Region& r2, const CmpCtx& ctx) {
  RegionOpResult out;
  if (r1.array() != r2.array() || r1.rank() != r2.rank()) {
    pushPiece(out, Pred::makeTrue(), r1);  // nothing removable
    return out;
  }
  if (regionsDisjoint(r1, r2, ctx) == Truth::True) {
    pushPiece(out, Pred::makeTrue(), r1);
    return out;
  }
  std::vector<SymRange> prefix;
  subtractDims(r1, r2, 0, ctx, Pred::makeTrue(), prefix, out);
  if (out.pieces.size() > kMaxPieces) {
    // Degrade: refuse to kill anything (sound over-approximation).
    out.pieces.clear();
    pushPiece(out, Pred::makeUnknown(), r1);
    out.unknown = true;
  }
  return out;
}

std::optional<Region> regionUnionPair(const Region& r1, const Region& r2, const CmpCtx& ctx) {
  if (r1.array() != r2.array() || r1.rank() != r2.rank()) return std::nullopt;
  if (r1 == r2) return r1;
  int differing = -1;
  for (int i = 0; i < r1.rank(); ++i) {
    if (r1.dims()[i] == r2.dims()[i]) continue;
    if (differing >= 0) return std::nullopt;  // more than one dimension differs
    differing = i;
  }
  auto merged = rangeUnionPair(r1.dims()[differing], r2.dims()[differing], ctx);
  if (!merged) return std::nullopt;
  return r1.withDim(differing, *merged);
}

}  // namespace panorama
