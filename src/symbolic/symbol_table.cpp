#include "panorama/symbolic/symbol_table.h"

#include <cctype>

namespace panorama {

std::string SymbolTable::normalize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

VarId SymbolTable::internKey(std::string key) {
  auto [it, inserted] =
      index_.try_emplace(std::move(key), static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(it->first);
  return VarId{it->second};
}

VarId SymbolTable::intern(std::string_view name) { return internKey(normalize(name)); }

VarId SymbolTable::primed(std::string_view var) {
  std::string key = normalize(var);
  key.push_back('\'');
  return internKey(std::move(key));
}

std::optional<VarId> SymbolTable::lookup(std::string_view name) const {
  auto it = index_.find(normalize(name));
  if (it == index_.end()) return std::nullopt;
  return VarId{it->second};
}

}  // namespace panorama
