#include "util/interner.h"

#include "util/check.h"

namespace origin::util {

SymbolId Interner::intern(std::string_view name) {
  if (const SymbolId* id = index_.find(name)) return *id;
  ORIGIN_CHECK(names_.size() < kInvalidSymbol,
               "Interner: symbol space exhausted");
  const SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

std::string_view Interner::name(SymbolId id) const {
  ORIGIN_CHECK(id < names_.size(), "Interner::name: id out of range");
  return names_[id];
}

void Interner::clear() {
  names_.clear();
  index_.clear();
}

}  // namespace origin::util
