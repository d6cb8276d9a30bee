// Interned symbolic variables. Every scalar name that can appear in a
// subscript, loop bound, or IF condition is interned once; expressions and
// predicates refer to variables by a small integer id.
//
// Sema interns a program's names single-threaded into the program's (or
// the session's) own table. Analysis adds only a handful: each DO
// variable's primed copy `var'`, `psi$1` and the quantified relation keys,
// each a hit after its first call. So one reader-writer lock over the index
// and the id-to-name store keeps concurrent procedure analyses safe; moving
// or copying the table itself is NOT thread-safe (do it before analysis
// starts).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace panorama {

/// Strongly-typed id of an interned symbolic variable.
struct VarId {
  std::uint32_t value = UINT32_MAX;

  constexpr bool isValid() const { return value != UINT32_MAX; }
  friend constexpr bool operator==(VarId, VarId) = default;
  friend constexpr auto operator<=>(VarId, VarId) = default;
};

/// Maps variable names to ids and back. Names are case-insensitive (Fortran);
/// they are stored lower-cased.
class SymbolTable {
 public:
  SymbolTable();
  SymbolTable(const SymbolTable& other);
  SymbolTable(SymbolTable&& other) noexcept;
  SymbolTable& operator=(const SymbolTable& other);
  SymbolTable& operator=(SymbolTable&& other) noexcept;
  ~SymbolTable();

  /// Interns `name`, returning the existing id if already present.
  VarId intern(std::string_view name);

  /// Looks up `name` without interning.
  std::optional<VarId> lookup(std::string_view name) const;

  /// Name of an interned id. The reference stays valid for the table's
  /// lifetime (ids are append-only and the backing store never relocates).
  const std::string& name(VarId id) const;
  std::size_t size() const;

  /// The reserved primed copy of DO variable `var` (the i' of MOD_{<i}):
  /// `var'`, interned once per table, so re-summarizing a loop reuses it
  /// instead of minting a new variable. It cannot collide with a program
  /// name: sema interns scalars as `scope::name`, and identifiers never
  /// contain `'` or `:`.
  VarId primed(std::string_view var);

 private:
  static std::string normalize(std::string_view name);

  struct Rep {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, std::uint32_t> index;
    std::deque<std::string> names;  ///< deque: stable references across growth
  };

  /// Interns an already-normalized `key`: a shared-lock lookup, then an
  /// insert under the write lock.
  VarId internKey(std::string key);

  std::unique_ptr<Rep> rep_;
};

}  // namespace panorama

template <>
struct std::hash<panorama::VarId> {
  std::size_t operator()(panorama::VarId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
