// Interned symbolic variables. Every scalar name that can appear in a
// subscript, loop bound, or IF condition is interned once; expressions and
// predicates refer to variables by a small integer id.
//
// A table is written single-threaded and frozen during analysis: sema
// interns a program's names into the program's (or the session's) own
// table, and the SummaryAnalyzer constructor adds each DO variable's primed
// copy `var'`, `psi$1` and the quantified relation keys. Analysis then only
// reads, so the table takes no lock; nothing may intern while an analysis
// of the table's program runs.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
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
  /// Interns `name`, returning the existing id if already present.
  VarId intern(std::string_view name);

  /// Looks up `name` without interning.
  std::optional<VarId> lookup(std::string_view name) const;

  /// Name of an interned id. The reference stays valid for the table's
  /// lifetime (ids are append-only and the backing store never relocates).
  const std::string& name(VarId id) const { return names_.at(id.value); }
  std::size_t size() const { return names_.size(); }

  /// The reserved primed copy of DO variable `var` (the i' of MOD_{<i}):
  /// `var'`, interned once per table, so re-summarizing a loop reuses it
  /// instead of minting a new variable. It cannot collide with a program
  /// name: sema interns scalars as `scope::name`, and identifiers never
  /// contain `'` or `:`.
  VarId primed(std::string_view var);

 private:
  static std::string normalize(std::string_view name);
  /// Interns an already-normalized `key`.
  VarId internKey(std::string key);

  std::unordered_map<std::string, std::uint32_t> index_;
  std::deque<std::string> names_;  ///< deque: stable references across growth
};

}  // namespace panorama

template <>
struct std::hash<panorama::VarId> {
  std::size_t operator()(panorama::VarId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
