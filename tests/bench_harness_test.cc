// bench::publish (bench/bench_common.h): the one path every BENCH_*.json
// takes. Pins the shared envelope, each gate kind, and the one rule that
// decides whether the committed baseline is refreshed or left byte-for-byte
// as it was. Runs in a temp directory; no bench is run.
#include "bench_common.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace origin::bench {
namespace {

namespace fs = std::filesystem;
using util::Json;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Gate gate(const char* key, Gate::Kind kind, double bound) {
  return {key, [key](const Json& doc) { return doc[key]; }, kind, bound};
}

Json::Object metric(const char* key, double value) {
  Json::Object doc;
  doc[key] = value;
  return doc;
}

// Each test runs with the working directory at <tmp>/work and the
// committed baselines in <tmp>/repo.
class BenchHarness : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("bench_harness_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "work");
    fs::create_directories(root_ / "repo");
    previous_ = fs::current_path();
    fs::current_path(root_ / "work");
  }
  void TearDown() override {
    fs::current_path(previous_);
    fs::remove_all(root_);
  }

  std::string repo() const { return (root_ / "repo").string(); }
  fs::path committed(const char* name) const {
    return root_ / "repo" / (std::string("BENCH_") + name + ".json");
  }
  fs::path fresh(const char* name) const {
    return root_ / "work" / (std::string("BENCH_") + name + ".json");
  }
  void commit(const char* name, Json::Object doc) const {
    ASSERT_TRUE(write_file(committed(name).string(),
                           Json(std::move(doc)).dump(2) + "\n"));
  }

  fs::path root_;
  fs::path previous_;
};

TEST_F(BenchHarness, NoCommittedFileWritesBothCopiesWithTheEnvelope) {
  ASSERT_TRUE(publish({"model", 42, 20'000}, metric("pps", 100), true,
                      {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  ASSERT_TRUE(fs::exists(committed("model")));
  EXPECT_EQ(slurp(committed("model")), slurp(fresh("model")));

  auto doc = read_json(committed("model").string());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["bench"].string_or(""), "model");
  EXPECT_EQ((*doc)["seed"].int_or(0), 42);
  EXPECT_EQ((*doc)["sites"].int_or(0), 20'000);
  EXPECT_TRUE((*doc)["peak_rss_bytes"].is_number());
  EXPECT_TRUE((*doc)["nproc"].is_number());
  EXPECT_EQ((*doc)["pps"].double_or(0), 100);
}

TEST_F(BenchHarness, BenchWithoutSitesOmitsTheField) {
  ASSERT_TRUE(publish({"faults", 7, std::nullopt}, {}, true, {}, repo()));
  auto doc = read_json(committed("faults").string());
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->contains("sites"));
  EXPECT_EQ((*doc)["seed"].int_or(0), 7);
}

TEST_F(BenchHarness, RegressionPastTheBoundLeavesCommittedByteUnchanged) {
  commit("model", metric("pps", 100));
  const std::string before = slurp(committed("model"));

  EXPECT_FALSE(publish({"model", 42, std::nullopt}, metric("pps", 89.9), true,
                       {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  EXPECT_EQ(slurp(committed("model")), before);
  // The fresh result still lands in the working directory.
  auto doc = read_json(fresh("model").string());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["pps"].double_or(0), 89.9);

  // Inside the bound: gated, passed, refreshed.
  EXPECT_TRUE(publish({"model", 42, std::nullopt}, metric("pps", 90.1), true,
                      {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  EXPECT_EQ(slurp(committed("model")), slurp(fresh("model")));
}

TEST_F(BenchHarness, RiseGatesBoundRelativeAndInPoints) {
  commit("faults", metric("median", 200));
  EXPECT_FALSE(publish({"faults", 42, std::nullopt}, metric("median", 221),
                       true, {gate("median", Gate::Kind::kMaxRisePct, 10)},
                       repo()));
  EXPECT_TRUE(publish({"faults", 42, std::nullopt}, metric("median", 219),
                      true, {gate("median", Gate::Kind::kMaxRisePct, 10)},
                      repo()));

  commit("crash", metric("overhead", 12));
  EXPECT_FALSE(publish({"crash", 42, std::nullopt}, metric("overhead", 22.5),
                       true, {gate("overhead", Gate::Kind::kMaxRisePoints, 10)},
                       repo()));
  EXPECT_TRUE(publish({"crash", 42, std::nullopt}, metric("overhead", 21.5),
                      true, {gate("overhead", Gate::Kind::kMaxRisePoints, 10)},
                      repo()));
}

TEST_F(BenchHarness, SmallerSitesRunIsGatedButNeverWritten) {
  Json::Object big = metric("sps", 100);
  big["sites"] = 100'000;
  commit("corpus", std::move(big));
  const std::string before = slurp(committed("corpus"));
  const Gate sps = gate("sps", Gate::Kind::kMaxFallPct, 10);

  // Gated: a regression still fails the smaller run.
  EXPECT_FALSE(
      publish({"corpus", 42, 20'000}, metric("sps", 50), true, {sps}, repo()));
  EXPECT_EQ(slurp(committed("corpus")), before);
  // Passing, but smaller: succeeds and leaves the larger reference alone.
  EXPECT_TRUE(
      publish({"corpus", 42, 20'000}, metric("sps", 150), true, {sps}, repo()));
  EXPECT_EQ(slurp(committed("corpus")), before);
  // Equal coverage refreshes.
  EXPECT_TRUE(publish({"corpus", 42, 100'000}, metric("sps", 150), true, {sps},
                      repo()));
  EXPECT_NE(slurp(committed("corpus")), before);
}

TEST_F(BenchHarness, MissingCommittedSitesCountsAsZero) {
  commit("overload", metric("p99", 100));
  EXPECT_TRUE(publish({"overload", 42, std::nullopt}, metric("p99", 105), true,
                      {gate("p99", Gate::Kind::kMaxRisePct, 10)}, repo()));
  EXPECT_EQ(slurp(committed("overload")), slurp(fresh("overload")));
}

TEST_F(BenchHarness, FailedAcceptanceCheckIsNotWritten) {
  // The pipeline case: no gate, a larger run, but the determinism check
  // failed — the committed copy must not take the broken run.
  Json::Object small;
  small["deterministic"] = true;
  small["sites"] = 2'000;
  commit("pipeline", std::move(small));
  const std::string before = slurp(committed("pipeline"));

  Json::Object broken;
  broken["deterministic"] = false;
  EXPECT_FALSE(
      publish({"pipeline", 42, 20'000}, std::move(broken), false, {}, repo()));
  EXPECT_EQ(slurp(committed("pipeline")), before);
  EXPECT_TRUE(fs::exists(fresh("pipeline")));
}

TEST_F(BenchHarness, NegativeCommittedCrashOverheadStillGates) {
  // A committed max_recovery_overhead_pct below zero is a baseline like any
  // other: +10 points over -2.5 is 7.5.
  const Gate overhead = gate("max_recovery_overhead_pct",
                             Gate::Kind::kMaxRisePoints, 10);
  Json::Object doc = metric("max_recovery_overhead_pct", -2.5);
  doc["sites"] = 20'000;
  commit("crash", std::move(doc));
  const std::string before = slurp(committed("crash"));

  EXPECT_FALSE(publish({"crash", 42, 20'000},
                       metric("max_recovery_overhead_pct", 8.0), true,
                       {overhead}, repo()));
  EXPECT_EQ(slurp(committed("crash")), before);
  EXPECT_TRUE(publish({"crash", 42, 20'000},
                      metric("max_recovery_overhead_pct", 7.0), true,
                      {overhead}, repo()));
}

TEST_F(BenchHarness, CommittedFileWithoutTheMetricIsAFirstRun) {
  commit("model", Json::Object{});
  EXPECT_TRUE(publish({"model", 42, std::nullopt}, metric("pps", 1), true,
                      {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  EXPECT_EQ(slurp(committed("model")), slurp(fresh("model")));
}

TEST_F(BenchHarness, FreshDocumentMissingTheGatedMetricFails) {
  commit("model", metric("pps", 100));
  const std::string before = slurp(committed("model"));
  EXPECT_FALSE(publish({"model", 42, std::nullopt}, Json::Object{}, true,
                       {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  EXPECT_EQ(slurp(committed("model")), before);
}

TEST_F(BenchHarness, RunFromTheCommittedDirectoryGatesBeforeWriting) {
  // A bench run with the repo root as its working directory: the working
  // copy is the committed copy, so a refused run must not overwrite it.
  commit("model", metric("pps", 100));
  const std::string before = slurp(committed("model"));
  fs::current_path(repo());
  EXPECT_FALSE(publish({"model", 42, std::nullopt}, metric("pps", 10), true,
                       {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  EXPECT_EQ(slurp(committed("model")), before);
  EXPECT_TRUE(publish({"model", 42, std::nullopt}, metric("pps", 100), true,
                      {gate("pps", Gate::Kind::kMaxFallPct, 10)}, repo()));
  EXPECT_NE(slurp(committed("model")), before);
}

TEST_F(BenchHarness, NoCommittedDirectoryOnlyWritesTheWorkingCopy) {
  EXPECT_TRUE(publish({"model", 42, std::nullopt}, metric("pps", 1), true,
                      {gate("pps", Gate::Kind::kMaxFallPct, 10)}, ""));
  EXPECT_TRUE(fs::exists(fresh("model")));
  EXPECT_FALSE(fs::exists(committed("model")));
  EXPECT_FALSE(publish({"model", 42, std::nullopt}, metric("pps", 1), false,
                       {}, ""));
}

}  // namespace
}  // namespace origin::bench
