// util::Interner: stable sequential ids, clear(), and id determinism under
// the serial-prepass + parallel-lookup discipline the model layer relies on
// (DESIGN.md §10).
#include "util/interner.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/alloc_guard.h"

namespace origin::util {
namespace {

TEST(Interner, AssignsSequentialIdsAndRoundTrips) {
  Interner interner;
  EXPECT_EQ(interner.size(), 0u);
  const SymbolId a = interner.intern("alpha");
  const SymbolId b = interner.intern("beta");
  const SymbolId c = interner.intern("gamma");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.name(a), "alpha");
  EXPECT_EQ(interner.name(b), "beta");
  EXPECT_EQ(interner.name(c), "gamma");
}

TEST(Interner, ReinterningReturnsTheSameId) {
  Interner interner;
  const SymbolId a = interner.intern("example.com");
  EXPECT_EQ(interner.intern("example.com"), a);
  EXPECT_EQ(interner.size(), 1u);
  // The stored view is a private copy, not the caller's buffer.
  std::string key = "transient";
  const SymbolId t = interner.intern(key);
  key = "clobbered";
  EXPECT_EQ(interner.name(t), "transient");
  EXPECT_EQ(interner.intern("transient"), t);
}

TEST(Interner, LookupFindsOnlyInternedStrings) {
  Interner interner;
  EXPECT_EQ(interner.lookup("missing"), kInvalidSymbol);
  const SymbolId a = interner.intern("present");
  EXPECT_EQ(interner.lookup("present"), a);
  EXPECT_EQ(interner.lookup("presen"), kInvalidSymbol);
  EXPECT_EQ(interner.lookup(""), kInvalidSymbol);
  const SymbolId empty = interner.intern("");
  EXPECT_EQ(interner.lookup(""), empty);
}

TEST(Interner, IdsAreAFunctionOfInsertionOrderOnly) {
  // Two interners fed the same sequence assign identical ids — the property
  // that makes a serial intern prepass deterministic across runs.
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) keys.push_back("svc:" + std::to_string(i));
  Interner first;
  Interner second;
  for (const auto& key : keys) first.intern(key);
  for (const auto& key : keys) second.intern(key);
  for (const auto& key : keys) {
    EXPECT_EQ(first.lookup(key), second.lookup(key)) << key;
  }
}

TEST(Interner, SurvivesTableAndDirectoryGrowth) {
  // Push far past the index's initial capacity and several deque blocks;
  // every id and every view must stay valid through the growth.
  Interner interner;
  constexpr int kCount = 5000;
  std::vector<SymbolId> ids;
  ids.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    ids.push_back(interner.intern("host-" + std::to_string(i) + ".example"));
  }
  ASSERT_EQ(interner.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const std::string key = "host-" + std::to_string(i) + ".example";
    EXPECT_EQ(ids[i], static_cast<SymbolId>(i));
    EXPECT_EQ(interner.name(ids[i]), key);
    EXPECT_EQ(interner.lookup(key), ids[i]);
  }
}

TEST(Interner, ClearRestartsIds) {
  Interner interner;
  interner.intern("old-a");
  interner.intern("old-b");
  interner.clear();
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.lookup("old-a"), kInvalidSymbol);
  EXPECT_EQ(interner.lookup("old-b"), kInvalidSymbol);
  EXPECT_EQ(interner.intern("new"), 0u);
  EXPECT_EQ(interner.intern("old-b"), 1u);
  EXPECT_EQ(interner.name(0), "new");
  EXPECT_EQ(interner.lookup("old-a"), kInvalidSymbol);
}

TEST(Interner, ClearReusesNameStorage) {
  // A warm refill re-interns the same names after clear(): the strings are
  // longer than the small-string buffer, so only reused slots keep this at
  // zero allocations.
  Interner interner;
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    names.push_back("shard-farm-host-" + std::to_string(i) + ".cdn.example");
  }
  for (const auto& name : names) interner.intern(name);
  interner.clear();
  AllocGuard guard;
  for (const auto& name : names) interner.intern(name);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(interner.size(), names.size());
  for (SymbolId id = 0; id < names.size(); ++id) {
    EXPECT_EQ(interner.name(id), names[id]);
  }
}

TEST(Interner, ConcurrentLookupsAfterSerialInserts) {
  // The single-writer contract: once the serial inserts are done, any
  // number of threads may read. Run under TSan via scripts/check.sh.
  Interner interner;
  constexpr int kCount = 3000;
  for (int i = 0; i < kCount; ++i) interner.intern("key-" + std::to_string(i));
  std::vector<std::thread> readers;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kCount; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const SymbolId id = interner.lookup(key);
        if (id != static_cast<SymbolId>(i) || interner.name(id) != key) {
          ++mismatches[t];
        }
      }
      if (interner.lookup("absent") != kInvalidSymbol) ++mismatches[t];
    });
  }
  for (auto& reader : readers) reader.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kCount));
}

}  // namespace
}  // namespace origin::util
