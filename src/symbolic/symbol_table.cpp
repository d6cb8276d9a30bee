#include "panorama/symbolic/symbol_table.h"

#include <cctype>
#include <mutex>

namespace panorama {

SymbolTable::SymbolTable() : rep_(std::make_unique<Rep>()) {}
SymbolTable::~SymbolTable() = default;
SymbolTable::SymbolTable(SymbolTable&& other) noexcept = default;
SymbolTable& SymbolTable::operator=(SymbolTable&& other) noexcept = default;

SymbolTable::SymbolTable(const SymbolTable& other) : rep_(std::make_unique<Rep>()) {
  rep_->index = other.rep_->index;
  rep_->names = other.rep_->names;
}

SymbolTable& SymbolTable::operator=(const SymbolTable& other) {
  if (this != &other) *this = SymbolTable(other);
  return *this;
}

std::string SymbolTable::normalize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

VarId SymbolTable::internKey(std::string key) {
  {
    std::shared_lock<std::shared_mutex> lock(rep_->mutex);
    if (auto it = rep_->index.find(key); it != rep_->index.end()) return VarId{it->second};
  }
  std::unique_lock<std::shared_mutex> lock(rep_->mutex);
  auto [it, inserted] =
      rep_->index.try_emplace(std::move(key), static_cast<std::uint32_t>(rep_->names.size()));
  if (inserted) rep_->names.push_back(it->first);
  return VarId{it->second};
}

VarId SymbolTable::intern(std::string_view name) { return internKey(normalize(name)); }

VarId SymbolTable::primed(std::string_view var) {
  std::string key = normalize(var);
  key.push_back('\'');
  return internKey(std::move(key));
}

std::optional<VarId> SymbolTable::lookup(std::string_view name) const {
  std::string key = normalize(name);
  std::shared_lock<std::shared_mutex> lock(rep_->mutex);
  auto it = rep_->index.find(key);
  if (it == rep_->index.end()) return std::nullopt;
  return VarId{it->second};
}

const std::string& SymbolTable::name(VarId id) const {
  std::shared_lock<std::shared_mutex> lock(rep_->mutex);
  return rep_->names.at(id.value);
}

std::size_t SymbolTable::size() const {
  std::shared_lock<std::shared_mutex> lock(rep_->mutex);
  return rep_->names.size();
}

}  // namespace panorama
