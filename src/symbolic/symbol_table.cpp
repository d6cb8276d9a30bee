#include "panorama/symbolic/symbol_table.h"

#include <cctype>
#include <mutex>

namespace panorama {

SymbolTable::SymbolTable() : rep_(std::make_unique<Rep>()) {}
SymbolTable::~SymbolTable() = default;
SymbolTable::SymbolTable(SymbolTable&& other) noexcept = default;
SymbolTable& SymbolTable::operator=(SymbolTable&& other) noexcept = default;

SymbolTable::SymbolTable(const SymbolTable& other) : rep_(std::make_unique<Rep>()) {
  rep_->names = other.rep_->names;
  for (std::size_t s = 0; s < kShards; ++s)
    rep_->shards[s].index = other.rep_->shards[s].index;
}

SymbolTable& SymbolTable::operator=(const SymbolTable& other) {
  if (this == &other) return *this;
  auto fresh = std::make_unique<Rep>();
  fresh->names = other.rep_->names;
  for (std::size_t s = 0; s < kShards; ++s)
    fresh->shards[s].index = other.rep_->shards[s].index;
  rep_ = std::move(fresh);
  return *this;
}

std::string SymbolTable::normalize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

SymbolTable::Shard& SymbolTable::shardFor(const std::string& key) const {
  return rep_->shards[std::hash<std::string>{}(key) % kShards];
}

VarId SymbolTable::internKey(std::string key) {
  Shard& shard = shardFor(key);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    if (auto it = shard.index.find(key); it != shard.index.end()) return VarId{it->second};
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (auto it = shard.index.find(key); it != shard.index.end()) return VarId{it->second};
  std::uint32_t id;
  {
    std::unique_lock<std::shared_mutex> nlock(rep_->namesMutex);
    id = static_cast<std::uint32_t>(rep_->names.size());
    rep_->names.push_back(key);
  }
  shard.index.emplace(std::move(key), id);
  return VarId{id};
}

VarId SymbolTable::intern(std::string_view name) { return internKey(normalize(name)); }

VarId SymbolTable::primed(std::string_view var) {
  std::string key = normalize(var);
  key.push_back('\'');
  return internKey(std::move(key));
}

std::optional<VarId> SymbolTable::lookup(std::string_view name) const {
  std::string key = normalize(name);
  const Shard& shard = shardFor(key);
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  return VarId{it->second};
}

const std::string& SymbolTable::name(VarId id) const {
  std::shared_lock<std::shared_mutex> lock(rep_->namesMutex);
  return rep_->names.at(id.value);
}

std::size_t SymbolTable::size() const {
  std::shared_lock<std::shared_mutex> lock(rep_->namesMutex);
  return rep_->names.size();
}

}  // namespace panorama
