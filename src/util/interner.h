// Append-only, single-writer string interner: string_view -> uint32 SymbolId.
//
// This is the symbol table behind the interned-ID hot path (DESIGN.md §10).
// The pipeline compares coalescing-group keys and hostnames millions of
// times per corpus replay; interning turns each comparison from a heap
// string compare into an integer compare, the same move HPACK's
// static/dynamic table indexing makes on the wire (RFC 7541).
//
// Concurrency contract: one writer, then many readers. intern() and clear()
// mutate the table and must not overlap any other call; lookup(), name()
// and size() are const and may run concurrently with each other once the
// writes are done. Deterministic outputs at any thread count follow from
// the same discipline: intern everything in a serial prepass (construction,
// batch-API entry) and keep the parallel region to lookups.
//
// IDs are assigned sequentially in first-appearance order, so two tables
// fed the same sequence agree id for id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "util/flat_map.h"

namespace origin::util {

using SymbolId = std::uint32_t;
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Returns the id for `name`, inserting it on first sight. The returned
  // string_view from name() stays valid until clear() or destruction.
  SymbolId intern(std::string_view name);

  // kInvalidSymbol if the string has never been interned.
  SymbolId lookup(std::string_view name) const {
    const SymbolId* id = index_.find(name);
    return id == nullptr ? kInvalidSymbol : *id;
  }

  // `id` must come from this interner.
  std::string_view name(SymbolId id) const;

  std::size_t size() const { return count_; }

  // Drops every symbol; ids restart at 0. The index and the name strings
  // keep their capacity, so re-interning names no longer than the old ones
  // in the same slots allocates nothing (a warm shard refill).
  void clear();

 private:
  // The deque keeps views stable as names are appended; the index keys
  // are views into it. Slots at and past count_ are spare storage left by
  // clear(): intern() reuses slot count_ before appending.
  std::deque<std::string> names_;
  std::size_t count_ = 0;
  FlatMap<std::string_view, SymbolId> index_;
};

}  // namespace origin::util
