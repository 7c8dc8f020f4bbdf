// Best-case coalescing model (paper §4).
//
// Inputs are measured HAR timelines; outputs are the paper's three
// predictions:
//   1. which requests *could have been* coalesced (ideal ORIGIN and ideal
//      IP variants),
//   2. the predicted DNS / TLS / certificate-validation counts under each
//      ideal (§4.2, Figure 3),
//   3. a conservatively reconstructed timeline with the avoided DNS and
//      TCP+TLS setup removed (§4.1, Figure 2) — the basis of the PLT
//      predictions in Figure 9.
//
// The model's core assumption (§4.1) is that every server in an AS can
// authoritatively serve all content of that AS; grouping by AS is therefore
// the default, with provider/service granularities available for the
// ablation bench.
//
// Hot-path representation (DESIGN.md §10): group keys are interned
// SymbolIds, not strings. All group ids for the serving world are assigned
// in a serial pass at construction, and the batch APIs run a serial intern
// prepass over their inputs; the parallel bodies then only look ids up. So
// ids — and therefore all outputs — are bit-identical at any thread count.
// The string-keyed seed implementation is preserved in baseline_model.h as
// the golden reference.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "browser/environment.h"
#include "dns/record.h"
#include "util/flat_map.h"
#include "util/interner.h"
#include "util/sim_time.h"
#include "web/har.h"

namespace origin::model {

enum class Grouping {
  kAsn,       // the paper's assumption: AS == coalescing unit
  kProvider,  // organization (merges an operator's several ASes)
  kService,   // exact deployment unit (strictest sound grouping)
};

const char* grouping_name(Grouping grouping);

struct EntryAnalysis {
  bool coalescable_origin = false;  // rides an earlier connection, ideal ORIGIN
  bool coalescable_ip = false;      // same server IP as an earlier connection
  // Coalescing unit this entry belongs to; resolve the spelled-out key via
  // CoalescingModel::group_name().
  util::SymbolId group = util::kInvalidSymbol;
};

struct PageAnalysis {
  std::vector<EntryAnalysis> entries;

  // Measured counts (from the HAR, including race extras).
  std::size_t measured_dns = 0;
  std::size_t measured_tls = 0;
  std::size_t measured_validations = 0;

  // §4.2 ideals: one DNS query + TLS handshake + validation per *service*
  // (group) for coalescable traffic; non-coalescable requests (h1,
  // insecure, unknown hosts) keep their measured behaviour.
  std::size_t ideal_origin_dns = 0;
  std::size_t ideal_origin_tls = 0;
  std::size_t ideal_origin_validations = 0;

  // Ideal IP coalescing: any set of >= 2 connections to one address
  // becomes one connection; no certificate or DNS changes assumed.
  std::size_t ideal_ip_dns = 0;
  std::size_t ideal_ip_tls = 0;
};

// Per-thread workspace reused across analyze/reconstruct calls. All
// members clear() without releasing capacity, so batch replay over a
// corpus does zero steady-state allocation once warm. Not thread-safe;
// the batch APIs keep one instance per worker thread.
struct AnalysisScratch {
  // analyze()
  util::FlatSet<util::SymbolId> groups_seen;
  util::FlatSet<std::string_view> solo_tls_hosts;
  util::FlatSet<std::string_view> plaintext_hosts;
  util::FlatSet<dns::IpAddress> addresses_seen;

  // reconstruct(): §4.1 concurrency batches, recorded per entry index
  // (replaces the seed's std::map<size_t, Duration>). Batches of one group
  // form a creation-ordered chain via `next`, headed by open_batches, so
  // membership lookup probes one hash slot then a short chain instead of
  // scanning every batch on the page.
  struct Batch {
    util::SymbolId group = util::kInvalidSymbol;
    util::SimTime window_end;
    util::Duration min_dns;
    std::int32_t next = -1;  // next batch of the same group, creation order
  };
  std::vector<Batch> batches;
  std::vector<std::int32_t> batch_of;  // entry -> batch index, -1 none
  util::FlatMap<util::SymbolId, std::int32_t> open_batches;  // group -> head

  // reconstruct(): O(n log n) anchor recovery (prefix-max over the original
  // schedule; replaces the seed's O(n²) scan). The fast path packs
  // (end, index) into one word and runs a single sort plus a Fenwick tree
  // over end ranks; the generic path (arbitrary int64 timestamps) keeps a
  // two-sort sweep over entry indices.
  struct AnchorCandidate {
    util::SimTime end;
    std::int32_t index = -1;  // -1: no candidate
  };
  std::vector<std::int32_t> anchor_of;  // entry -> anchor index, -1 none
  std::vector<util::SimTime> ends;      // original entry ends, computed once
  std::vector<std::uint64_t> end_order;  // packed (end << 32 | index), sorted
  std::vector<std::uint32_t> rank_of;    // entry -> position in end_order
  std::vector<std::uint64_t> anchor_tree;  // Fenwick prefix-max over ranks
  std::vector<std::uint32_t> order_by_end;    // generic fallback
  std::vector<std::uint32_t> order_by_start;  // generic fallback
  std::vector<AnchorCandidate> prefix_max;  // Fenwick tree over entry index
};

class CoalescingModel {
 public:
  // Interns one group id per existing service (plus the "as0" unknown-AS
  // bucket) in service order — the serial id-assignment pass the
  // determinism contract requires. Keys outside this primed world
  // (services added to `env` later, hand-built loads) are interned by the
  // serial entry points: analyze(), the batch APIs' prepass, group_of().
  explicit CoalescingModel(const browser::Environment& env,
                           Grouping grouping = Grouping::kAsn);

  // Interns the page's group keys, then analyzes it. Serial: do not call
  // concurrently with other calls on this model (use analyze_batch).
  PageAnalysis analyze(const web::PageLoad& load) const;
  PageAnalysis analyze(const web::PageLoad& load,
                       AnalysisScratch& scratch) const;

  // §4.1 conservative timeline reconstruction. `restrict_to_group`
  // non-empty limits coalescing to that group only (the "deployment CDN
  // only" prediction in Figure 9's dotted line); a group key that was
  // never seen matches no entries, as in the seed implementation.
  web::PageLoad reconstruct(const web::PageLoad& load,
                            const PageAnalysis& analysis,
                            const std::string& restrict_to_group = "") const;
  web::PageLoad reconstruct(const web::PageLoad& load,
                            const PageAnalysis& analysis,
                            const std::string& restrict_to_group,
                            AnalysisScratch& scratch) const;

  // Sharded per-site replay: analyze/reconstruct every load on a thread
  // pool. Both are pure per page and results are merged by input index, so
  // output is bit-identical at any thread count (threads: 0 = ORIGIN_THREADS
  // default, 1 = serial fallback).
  std::vector<PageAnalysis> analyze_batch(
      const std::vector<web::PageLoad>& loads, std::size_t threads = 1) const;
  std::vector<web::PageLoad> reconstruct_batch(
      const std::vector<web::PageLoad>& loads,
      const std::vector<PageAnalysis>& analyses,
      const std::string& restrict_to_group = "",
      std::size_t threads = 1) const;

  // Fused analyze+reconstruct per page: no retained PageAnalysis vector,
  // one scratch pass per load. The corpus-replay fast path measured by
  // bench_perf_model.
  std::vector<web::PageLoad> replay_batch(
      const std::vector<web::PageLoad>& loads,
      const std::string& restrict_to_group = "",
      std::size_t threads = 1) const;

  // Consume overload: reconstructs the given pages in place and returns the
  // same vector. Skips the per-page deep copy (hostnames, DNS answer sets,
  // issuer strings) that dominates the copying overload's profile — use it
  // when the measured timeline is not needed afterwards.
  std::vector<web::PageLoad> replay_batch(
      std::vector<web::PageLoad>&& loads,
      const std::string& restrict_to_group = "",
      std::size_t threads = 1) const;

  // Group id for a hostname under the configured grouping, interning the
  // key on first sight. Serial: do not call concurrently with other calls
  // on this model.
  util::SymbolId group_of(const std::string& hostname,
                          std::uint32_t asn) const;

  // Spelled-out key ("as13335", "org:…", "svc:…", "host:…") for a group
  // id returned by group_of().
  std::string_view group_name(util::SymbolId group) const {
    return groups_.name(group);
  }

  // Id for a spelled-out key; kInvalidSymbol if never interned (which
  // matches no analyzed entry).
  util::SymbolId find_group(std::string_view key) const {
    return groups_.lookup(key);
  }

 private:
  void analyze_into(const web::PageLoad& load, PageAnalysis* out,
                    AnalysisScratch& scratch) const;
  web::PageLoad reconstruct_impl(const web::PageLoad& load,
                                 const PageAnalysis& analysis, bool restricted,
                                 util::SymbolId restrict_to,
                                 AnalysisScratch& scratch) const;
  // One-pass fused replay: the §4.2 counts and ideal-IP flags are not
  // needed to rebuild the waterfall, so the batch scan folds the reduced
  // analysis (group + repeat-of-group) directly into its entry loop and
  // mutates the page in place. Output is identical to
  // reconstruct(load, analyze(load), restrict) — enforced by the golden
  // test against the string-keyed baseline.
  void replay_page_in_place(web::PageLoad& page, bool restricted,
                            util::SymbolId restrict_to,
                            AnalysisScratch& scratch) const;
  // Serial intern prepass over a batch input: assigns any not-yet-seen
  // group id in input order before the parallel region runs.
  void intern_groups(std::span<const web::PageLoad> loads) const;

  // A (hostname, asn) pair resolves either to an id primed at construction
  // or to the spelled-out key prefix + rest, which needs the symbol table.
  struct GroupKey {
    util::SymbolId primed = util::kInvalidSymbol;
    std::string_view prefix;
    std::string_view rest;
  };
  GroupKey group_key(std::string_view hostname, std::uint32_t asn,
                     char (&asn_buffer)[16]) const;
  // The parallel bodies' resolution: lookups only, and a key the serial
  // prepass did not intern is an ORIGIN_CHECK failure.
  util::SymbolId lookup_group(std::string_view hostname,
                              std::uint32_t asn) const;

  const browser::Environment& env_;
  Grouping grouping_;
  // Written only by the serial paths (constructor, intern_groups,
  // group_of); the parallel bodies only read it.
  mutable util::Interner groups_;
  util::FlatMap<std::uint32_t, util::SymbolId> asn_groups_;
  std::vector<util::SymbolId> service_groups_;  // by service index
};

}  // namespace origin::model
