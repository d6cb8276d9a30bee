// Regular array regions: A(r1, ..., rm) with one range triple per dimension
// (§3). Region operations decompose into per-dimension range operations and
// recombine the guarded pieces (§3.1); results are lists of guarded regions.
// Regions are hash-consed handles into the region table.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "panorama/region/range.h"
#include "panorama/support/intern_table.h"

namespace panorama {

/// Strongly-typed id of an interned array.
struct ArrayId {
  std::uint32_t value = UINT32_MAX;
  constexpr bool isValid() const { return value != UINT32_MAX; }
  friend constexpr bool operator==(ArrayId, ArrayId) = default;
  friend constexpr auto operator<=>(ArrayId, ArrayId) = default;
};

/// Declared shape of one array: per-dimension bounds (possibly symbolic).
struct ArrayShape {
  std::string name;
  std::vector<SymRange> declaredDims;  ///< declared bounds, e.g. (1 : n : 1)

  int rank() const { return static_cast<int>(declaredDims.size()); }
};

/// Interns arrays per program; regions refer to arrays by id.
class ArrayTable {
 public:
  ArrayId intern(std::string name, std::vector<SymRange> declaredDims);
  /// Like intern, but an existing name takes the new declared shape instead
  /// of keeping the first one. Used when the incremental session re-runs
  /// sema against its persistent table: ids stay stable across submits while
  /// an edited declaration still updates its bounds.
  ArrayId internOrUpdate(std::string name, std::vector<SymRange> declaredDims);
  std::optional<ArrayId> lookup(std::string_view name) const;
  const ArrayShape& shape(ArrayId id) const { return shapes_.at(id.value); }
  const std::string& name(ArrayId id) const { return shapes_.at(id.value).name; }
  std::size_t size() const { return shapes_.size(); }

 private:
  std::vector<ArrayShape> shapes_;
};

namespace detail {
/// One interned region value (table-owned, immutable, stable address). The
/// Ω flag and the validity conjunction are derived once, when the value is
/// first interned.
struct RegionNode {
  ArrayId array;
  std::vector<SymRange> dims;
  bool unknownDim = false;  // some dimension is Ω
  Pred validity;            // ∧ of the per-dimension l <= u conditions
  std::size_t hash = 0;     // structural hash, cached at interning time
  std::uint64_t id = 0;     // dense table key; shard index in the low bits
};
}  // namespace detail

/// The region table, the fourth instance of support/intern_table.h beside
/// the expression arena, the predicate arena and the atom table;
/// `RegionTable::global().stats()` is its occupancy.
using RegionTable = InternTable<detail::RegionNode>;

/// A regular array region of one array. Dimensions marked unknown
/// (SymRange::unknown) correspond to the paper's per-dimension Ω marks.
///
/// Like expressions and predicates, regions are hash-consed: every distinct
/// (array, dims) value is interned once in the region table, and a `Region`
/// is an 8-byte immutable handle, so copying one allocates nothing and
/// equality is a pointer compare. Building a region interns it; building
/// one that is already interned allocates nothing beyond the caller's dims.
class Region {
 public:
  /// The "no region": no array, no dimensions (a default Gar's region).
  Region();
  Region(ArrayId array, std::span<const SymRange> dims);
  Region(ArrayId array, std::initializer_list<SymRange> dims)
      : Region(array, std::span<const SymRange>(dims.begin(), dims.size())) {}

  ArrayId array() const { return node_->array; }
  const std::vector<SymRange>& dims() const { return node_->dims; }
  int rank() const { return static_cast<int>(node_->dims.size()); }
  bool hasUnknownDim() const { return node_->unknownDim; }
  bool fullyKnown() const { return !hasUnknownDim(); }

  /// The conjunction of per-dimension validity conditions (l <= u), which
  /// §3 keeps in every GAR's guard.
  const Pred& validity() const { return node_->validity; }

  /// This region with dimension `d` replaced by `r`.
  Region withDim(int d, const SymRange& r) const;
  Region substituted(VarId v, const SymExpr& r) const;
  Region substituted(const std::map<VarId, SymExpr>& r) const;
  bool containsVar(VarId v) const;
  void collectVars(std::vector<VarId>& out) const;

  /// Concrete element enumeration (tuples of subscripts); nullopt when any
  /// dimension cannot be enumerated.
  std::optional<std::set<std::vector<std::int64_t>>> enumerate(
      const Binding& binding, std::size_t maxCount = 1 << 16) const;

  /// Hash-consing makes equality a pointer compare: one node per value.
  friend bool operator==(const Region& a, const Region& b) { return a.node_ == b.node_; }
  std::string str(const SymbolTable& symtab, const ArrayTable& arrays) const;
  /// Dense 64-bit table key; id equality <=> structural equality.
  std::uint64_t id() const { return node_->id; }

 private:
  const detail::RegionNode* node_;
};

/// A guarded region piece: the building block of region-operation results.
struct GuardedRegion {
  Pred guard;
  Region region;
};

struct RegionOpResult {
  std::vector<GuardedRegion> pieces;
  bool unknown = false;  ///< some part of the result could not be represented
};

/// R1 ∩ R2: cartesian combination of the per-dimension intersections.
RegionOpResult regionIntersect(const Region& r1, const Region& r2, const CmpCtx& ctx);

/// R1 − R2: the paper's recursive peel — dimension 1's difference keeps full
/// tails, dimension 1's intersection recurses into the remaining dimensions.
RegionOpResult regionSubtract(const Region& r1, const Region& r2, const CmpCtx& ctx);

/// Merge into a single region when exactly one dimension differs and that
/// pair merges; nullopt otherwise.
std::optional<Region> regionUnionPair(const Region& r1, const Region& r2, const CmpCtx& ctx);

/// Provable containment / disjointness lifted over dimensions.
Truth regionContains(const Region& outer, const Region& inner, const CmpCtx& ctx);
Truth regionsDisjoint(const Region& r1, const Region& r2, const CmpCtx& ctx);

}  // namespace panorama

template <>
struct std::hash<panorama::ArrayId> {
  std::size_t operator()(panorama::ArrayId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
