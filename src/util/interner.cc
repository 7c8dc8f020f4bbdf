#include "util/interner.h"

#include "util/check.h"

namespace origin::util {

SymbolId Interner::intern(std::string_view name) {
  if (const SymbolId* id = index_.find(name)) return *id;
  ORIGIN_CHECK(count_ < kInvalidSymbol, "Interner: symbol space exhausted");
  const SymbolId id = static_cast<SymbolId>(count_);
  if (count_ < names_.size()) {
    names_[count_].assign(name);
  } else {
    names_.emplace_back(name);
  }
  ++count_;
  index_.emplace(names_[id], id);
  return id;
}

std::string_view Interner::name(SymbolId id) const {
  ORIGIN_CHECK(id < count_, "Interner::name: id out of range");
  return names_[id];
}

void Interner::clear() {
  count_ = 0;
  index_.clear();
}

}  // namespace origin::util
