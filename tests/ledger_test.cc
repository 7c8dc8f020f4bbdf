// The counter-and-reason ledgers (util/ledger.h): the canonical byte form
// of every serialized ledger is pinned to golden strings, merge is
// field-wise addition, and every report built on a field table lists each
// counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/corpus.h"
#include "measure/reports.h"
#include "netsim/faults.h"
#include "server/http2_server.h"
#include "util/ledger.h"

namespace origin {
namespace {

using server::Http2Server;

// Sets counter i to base * (i + 1) and two reasons to base and 2 * base, so
// fill(a, x) merged with fill(b, y) equals fill(c, x + y) field by field.
void fill(Http2Server::Stats& s, std::uint64_t base) {
  s.connections = base * 1;
  s.requests = base * 2;
  s.responses_200 = base * 3;
  s.responses_404 = base * 4;
  s.responses_421 = base * 5;
  s.origin_frames_sent = base * 6;
  s.origin_frames_suppressed = base * 7;
  s.h2_protocol_errors = base * 8;
  s.submit_failures = base * 9;
  s.sessions_shed = base * 10;
  s.sessions_reaped_stalled = base * 11;
  s.admission_rejections = base * 12;
  s.streams_refused = base * 13;
  s.drains_started = base * 14;
  s.drained_clean = base * 15;
  s.close_reasons.record("overload: ping flood", base * 2);
  s.close_reasons.record("drain: complete", base);
}

void fill(netsim::RobustnessStats& s, std::uint64_t base) {
  s.connect_timeouts = base * 1;
  s.connect_failures = base * 2;
  s.request_timeouts = base * 3;
  s.dns_failures = base * 4;
  s.tls_failures = base * 5;
  s.h2_protocol_errors = base * 6;
  s.retries = base * 7;
  s.backoff_micros = base * 8;
  s.retry_budget_exhausted = base * 9;
  s.avoid_list_entries = base * 10;
  s.avoided_coalescings = base * 11;
  s.redispatched_streams = base * 12;
  s.goaways_received = base * 13;
  s.goaway_redispatches = base * 14;
  s.connections_torn_down = base * 15;
  s.deadline_expirations = base * 16;
  s.teardown_reasons.record("middlebox: origin-frame", base * 2);
  s.teardown_reasons.record("injected: rst", base);
}

constexpr std::uint64_t kRobustnessCounters = 16;

// The canonical byte forms. The overload benches and the wire benchmark
// digest these strings, so they must not change.
constexpr const char* kServerGolden =
    "connections=1\n"
    "requests=2\n"
    "responses_200=3\n"
    "responses_404=4\n"
    "responses_421=5\n"
    "origin_frames_sent=6\n"
    "origin_frames_suppressed=7\n"
    "h2_protocol_errors=8\n"
    "submit_failures=9\n"
    "sessions_shed=10\n"
    "sessions_reaped_stalled=11\n"
    "admission_rejections=12\n"
    "streams_refused=13\n"
    "drains_started=14\n"
    "drained_clean=15\n"
    "close_reason[drain: complete]=1\n"
    "close_reason[overload: ping flood]=2\n";

constexpr const char* kRobustnessGolden =
    "connect_timeouts=1\n"
    "connect_failures=2\n"
    "request_timeouts=3\n"
    "dns_failures=4\n"
    "tls_failures=5\n"
    "h2_protocol_errors=6\n"
    "retries=7\n"
    "backoff_micros=8\n"
    "retry_budget_exhausted=9\n"
    "avoid_list_entries=10\n"
    "avoided_coalescings=11\n"
    "redispatched_streams=12\n"
    "goaways_received=13\n"
    "goaway_redispatches=14\n"
    "connections_torn_down=15\n"
    "deadline_expirations=16\n"
    "teardown_reason[injected: rst]=1\n"
    "teardown_reason[middlebox: origin-frame]=2\n";

TEST(Ledger, ServerStatsSerializeMatchesGolden) {
  Http2Server::Stats stats;
  fill(stats, 1);
  EXPECT_EQ(stats.serialize(), kServerGolden);
}

TEST(Ledger, RobustnessStatsSerializeMatchesGolden) {
  netsim::RobustnessStats stats;
  fill(stats, 1);
  EXPECT_EQ(stats.serialize(), kRobustnessGolden);
}

TEST(Ledger, EmptyLedgerSerializesEveryCounterAsZeroAndNoReasons) {
  const std::string out = netsim::RobustnessStats{}.serialize();
  std::size_t zeros = 0;
  for (std::size_t at = out.find("=0\n"); at != std::string::npos;
       at = out.find("=0\n", at + 1)) {
    ++zeros;
  }
  EXPECT_EQ(zeros, kRobustnessCounters) << out;
  EXPECT_EQ(out.find('['), std::string::npos) << out;
}

TEST(Ledger, ServerStatsMergeIsFieldWiseAddition) {
  Http2Server::Stats a;
  Http2Server::Stats b;
  Http2Server::Stats sum;
  fill(a, 1);
  fill(b, 100);
  fill(sum, 101);
  a.merge(b);
  EXPECT_EQ(a.serialize(), sum.serialize());
  EXPECT_EQ(a.drained_clean, 15u * 101u);
  EXPECT_EQ(a.close_reasons.count("overload: ping flood"), 202u);
}

TEST(Ledger, RobustnessStatsMergeIsFieldWiseAddition) {
  netsim::RobustnessStats a;
  netsim::RobustnessStats b;
  netsim::RobustnessStats sum;
  fill(a, 1);
  fill(b, 100);
  fill(sum, 101);
  a.merge(b);
  EXPECT_EQ(a.serialize(), sum.serialize());
  EXPECT_EQ(a.goaway_redispatches, 14u * 101u);
  EXPECT_EQ(a.teardown_reasons.count("injected: rst"), 101u);
}

TEST(Ledger, RobustnessReportHasOneRowPerCounterAndReason) {
  netsim::RobustnessStats stats;
  fill(stats, 1);
  measure::RobustnessReport report;
  report.add(stats, /*complete=*/true, /*plt_ms=*/1.0);
  const std::string rendered = report.table().render();
  std::size_t lines = 0;
  for (char c : rendered) lines += c == '\n' ? 1 : 0;
  // Header and rule, then "loads" and "completion rate", then one row per
  // counter and one per teardown reason.
  EXPECT_EQ(lines, 2 + 2 + kRobustnessCounters + 2) << rendered;
  EXPECT_NE(rendered.find("goaway_redispatches"), std::string::npos)
      << rendered;
}

TEST(Ledger, ForEachVisitsEveryCounterInTableOrder) {
  netsim::RobustnessStats stats;
  fill(stats, 1);
  std::vector<std::uint64_t> values;
  stats.for_each([&values](std::string_view, std::uint64_t value) {
    values.push_back(value);
  });
  ASSERT_EQ(values.size(), kRobustnessCounters);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i + 1);
  }
}

TEST(Ledger, RecoveryStatsForEachNamesEveryCounter) {
  dataset::RecoveryStats recovery;
  recovery.stale_temps_swept = 1;
  recovery.stale_shards_removed = 2;
  recovery.manifest_records_replayed = 3;
  recovery.manifest_tail_bytes_dropped = 4;
  recovery.manifest_resets = 5;
  recovery.shards_reused = 6;
  recovery.shards_regenerated = 7;
  recovery.shards_quarantined = 8;
  std::map<std::string, std::uint64_t> seen;
  recovery.for_each([&seen](std::string_view name, std::uint64_t value) {
    seen.emplace(std::string(name), value);
  });
  const std::map<std::string, std::uint64_t> expected = {
      {"stale_temps_swept", 1},         {"stale_shards_removed", 2},
      {"manifest_records_replayed", 3}, {"manifest_tail_bytes_dropped", 4},
      {"manifest_resets", 5},           {"shards_reused", 6},
      {"shards_regenerated", 7},        {"shards_quarantined", 8},
  };
  EXPECT_EQ(seen, expected);
}

TEST(ReasonCounts, RecordCountsAndAbsentReasonIsZero) {
  util::ReasonCounts counts;
  EXPECT_TRUE(counts.empty());
  counts.record("overload: ping flood");
  counts.record("overload: ping flood");
  counts.record("drain: complete", 5);
  EXPECT_FALSE(counts.empty());
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.count("overload: ping flood"), 2u);
  EXPECT_EQ(counts.count("drain: complete"), 5u);
  EXPECT_EQ(counts.count("overload: stall timeout"), 0u);
}

TEST(ReasonCounts, IteratesSortedAndMergeAddsTallies) {
  util::ReasonCounts a;
  a.record("zeta");
  a.record("alpha", 2);
  util::ReasonCounts b;
  b.record("alpha", 3);
  b.record("mid");
  a.merge(b);
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  for (const auto& [reason, n] : a) seen.emplace_back(reason, n);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"alpha", 5}, {"mid", 1}, {"zeta", 1}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(b.count("alpha"), 3u);  // merge leaves its source alone
}

}  // namespace
}  // namespace origin
