// util::FlatMap / util::FlatSet: open-addressing behaviour under the
// hot-path contracts — collision-heavy probing, growth across rehashes,
// capacity-preserving clear(), heterogeneous lookup, insertion-order
// deterministic iteration, and concurrent reads after serial inserts.
#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace origin::util {
namespace {

TEST(FlatMap, BasicInsertFindAndFirstWinsEmplace) {
  FlatMap<std::string, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find("a"), nullptr);

  auto [value, inserted] = map.emplace("a", 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 1);
  // emplace never overwrites: the first value wins, like std::map.
  auto [again, reinserted] = map.emplace("a", 99);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(*again, 1);
  EXPECT_EQ(map.size(), 1u);

  map["b"] = 2;
  map["b"] += 10;
  EXPECT_EQ(*map.find("b"), 12);
  EXPECT_TRUE(map.contains("a"));
  EXPECT_FALSE(map.contains("c"));
}

TEST(FlatMap, HeterogeneousLookupWithStringView) {
  FlatMap<std::string, int> map;
  map.emplace("example.com", 7);
  const std::string_view view = "example.com";
  EXPECT_NE(map.find(view), nullptr);
  EXPECT_EQ(*map.find(view), 7);
  EXPECT_TRUE(map.contains(std::string_view("example.com")));
  EXPECT_FALSE(map.contains(std::string_view("example.co")));
}

// A pathological hash: every key lands in one bucket, forcing maximal
// linear-probe chains through every growth step.
struct CollidingHash {
  std::uint64_t operator()(int) const { return 0x1234u; }
};

TEST(FlatMap, CollisionHeavyKeysStillResolveExactly) {
  FlatMap<int, int, CollidingHash> map;
  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    EXPECT_TRUE(map.emplace(i, i * i).second);
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const int* value = map.find(i);
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i * i);
  }
  EXPECT_EQ(map.find(kCount), nullptr);
  EXPECT_EQ(map.find(-1), nullptr);
}

TEST(FlatMap, GrowthPreservesEntriesAndLoadFactor) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kCount = 10000;
  for (std::uint64_t i = 0; i < kCount; ++i) map.emplace(i, ~i);
  EXPECT_EQ(map.size(), kCount);
  // Max load factor 3/4 over power-of-two capacities.
  EXPECT_GE(map.capacity() * 3, map.size() * 4);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const std::uint64_t* value = map.find(i);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, ~i);
  }
}

TEST(FlatMap, ClearKeepsCapacityForScratchReuse) {
  FlatMap<int, int> map;
  for (int i = 0; i < 1000; ++i) map.emplace(i, i);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_FALSE(map.contains(1));
  // Refilling to the same size must not rehash (the AnalysisScratch
  // zero-steady-state-allocation contract).
  for (int i = 0; i < 1000; ++i) map.emplace(i, -i);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(*map.find(999), -999);
}

TEST(FlatMap, ReserveAvoidsRehashDuringFill) {
  FlatMap<int, int> map;
  map.reserve(5000);
  const std::size_t capacity = map.capacity();
  for (int i = 0; i < 5000; ++i) map.emplace(i, i);
  EXPECT_EQ(map.capacity(), capacity);
}

std::vector<std::pair<std::string, int>> iteration_order(
    const std::vector<std::string>& keys) {
  FlatMap<std::string, int> map;
  int next = 0;
  for (const auto& key : keys) map.emplace(key, next++);
  std::vector<std::pair<std::string, int>> order;
  for (const auto& [key, value] : map) order.emplace_back(key, value);
  return order;
}

TEST(FlatMap, IterationOrderIsADeterministicFunctionOfInsertion) {
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) keys.push_back("key-" + std::to_string(i));
  const auto first = iteration_order(keys);
  const auto second = iteration_order(keys);
  ASSERT_EQ(first.size(), keys.size());
  // Same insertion sequence -> byte-identical iteration order, across
  // separately grown tables (stored-hash rehash preserves table order as a
  // pure function of the insertion sequence).
  EXPECT_EQ(first, second);
}

TEST(FlatMap, IterationVisitsEveryEntryExactlyOnce) {
  FlatMap<int, int> map;
  for (int i = 0; i < 137; ++i) map.emplace(i, i);
  std::vector<bool> seen(137, false);
  std::size_t visits = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, value);
    ASSERT_GE(key, 0);
    ASSERT_LT(key, 137);
    EXPECT_FALSE(seen[static_cast<std::size_t>(key)]);
    seen[static_cast<std::size_t>(key)] = true;
    ++visits;
  }
  EXPECT_EQ(visits, map.size());
}

TEST(FlatSet, InsertReportsNoveltyAndContainsTracks) {
  FlatSet<std::string> set;
  EXPECT_TRUE(set.insert("a"));
  EXPECT_FALSE(set.insert("a"));
  EXPECT_TRUE(set.insert("b"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(std::string_view("a")));
  EXPECT_FALSE(set.contains(std::string_view("c")));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert("a"));
}

TEST(FlatSet, CollisionHeavyForEachVisitsAll) {
  FlatSet<int, CollidingHash> set;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(set.insert(i));
  std::vector<bool> seen(100, false);
  set.for_each([&](int key) {
    ASSERT_GE(key, 0);
    ASSERT_LT(key, 100);
    seen[static_cast<std::size_t>(key)] = true;
  });
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(seen[static_cast<std::size_t>(i)]);
}

TEST(FlatMap, PairKeysWork) {
  FlatMap<std::pair<int, std::uint64_t>, std::uint64_t> map;
  ++map[{0, 7}];
  ++map[{0, 7}];
  ++map[{1, 7}];
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.find(std::pair<int, std::uint64_t>{0, 7}), 2u);
  EXPECT_EQ(*map.find(std::pair<int, std::uint64_t>{1, 7}), 1u);
  EXPECT_EQ(map.find(std::pair<int, std::uint64_t>{2, 7}), nullptr);
}

TEST(FlatMap, ConcurrentLookupsAfterSerialInserts) {
  // The read-only sharing the model's group lookup and
  // browser::Environment's host routing rely on: once the serial inserts
  // are done, any number of threads may look up with string_view keys.
  // Run under TSan via scripts/check.sh.
  FlatMap<std::string, int> map;
  constexpr int kCount = 3000;
  for (int i = 0; i < kCount; ++i) map.emplace("host-" + std::to_string(i), i);
  const FlatMap<std::string, int>& shared = map;
  std::vector<std::thread> readers;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      char buffer[32];
      for (int i = 0; i < kCount; ++i) {
        const int length = std::snprintf(buffer, sizeof(buffer), "host-%d", i);
        const std::string_view key(buffer, static_cast<std::size_t>(length));
        const int* value = shared.find(key);
        if (value == nullptr || *value != i) ++mismatches[t];
      }
      if (shared.contains(std::string_view("host-absent"))) ++mismatches[t];
    });
  }
  for (auto& reader : readers) reader.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kCount));
}

}  // namespace
}  // namespace origin::util
