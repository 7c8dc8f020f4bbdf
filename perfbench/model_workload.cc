// model_replay: the §4 coalescing model, §4.3 certificate planner and §5.2
// passive pipeline over pages collected once during set-up. Page loading,
// spill and HAR printing are outside the timed region, so this workload
// isolates the model, measure and util (interner) layers.
#include <string>
#include <vector>

#include "dataset/collector.h"
#include "dataset/corpus.h"
#include "measure/passive.h"
#include "measure/stream.h"
#include "model/cert_planner.h"
#include "model/coalescing_model.h"
#include "util/fnv.h"
#include "web/har_json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace origin;

// ≈1,900 eligible pages, replayed in four blocks of ≈475 (~40 ms each on
// 4 threads).
constexpr std::size_t kSites = 3'000;
constexpr std::size_t kBlocks = 4;
// Pages compared against StreamingCorpus's StreamStats.
constexpr std::size_t kCheckPages = 128;
// PassiveShardObserver's defaults: the §5.2 1% request sample.
constexpr double kPassiveSampleRate = 0.01;
constexpr std::uint64_t kPassiveSeed = 0xCD4;

// Aggregates of one replay; repeated replays must agree exactly.
struct ReplaySums {
  std::uint64_t ideal_origin_dns = 0;
  std::uint64_t ideal_origin_tls = 0;
  std::uint64_t ideal_origin_validations = 0;
  std::uint64_t ideal_ip_dns = 0;
  std::uint64_t ideal_ip_tls = 0;
  std::int64_t reconstructed_plt_us = 0;
  std::int64_t ideal_ip_plt_us = 0;
  std::uint64_t sites_needing_change = 0;
  std::uint64_t san_additions = 0;
  std::uint64_t passive_sampled = 0;
  std::uint64_t passive_control = 0;
  std::uint64_t passive_experiment = 0;

  bool operator==(const ReplaySums&) const = default;
};

struct Replayer {
  dataset::Corpus& corpus;
  const std::vector<std::size_t>& sites;  // eligible site per page
  const model::CoalescingModel& model;
  const model::CertPlanner& planner;
  std::size_t threads;

  // Runs every stage over `pages`, the eligible-site ordinals from `first`
  // on; a non-null trace times each stage.
  ReplaySums replay(const std::vector<web::PageLoad>& pages, std::size_t first,
                    Trace* trace) const {
    auto span = [&](const char* name) {
      return trace != nullptr ? &(*trace)[name] : nullptr;
    };
    ReplaySums sums;
    std::vector<model::PageAnalysis> analyses;
    {
      Span s(span("model.analyze_batch"), /*parallel=*/true);
      analyses = model.analyze_batch(pages, threads);
    }
    for (const model::PageAnalysis& a : analyses) {
      sums.ideal_origin_dns += a.ideal_origin_dns;
      sums.ideal_origin_tls += a.ideal_origin_tls;
      sums.ideal_origin_validations += a.ideal_origin_validations;
      sums.ideal_ip_dns += a.ideal_ip_dns;
      sums.ideal_ip_tls += a.ideal_ip_tls;
    }
    {
      Span s(span("model.reconstruct_batch"), /*parallel=*/true);
      const auto reconstructed =
          model.reconstruct_batch(pages, analyses, "", threads);
      for (const web::PageLoad& page : reconstructed) {
        sums.reconstructed_plt_us += page.page_load_time().count_micros();
      }
    }
    {
      // Ideal IP coalescing (Fig 9): reconstruct with the IP-coalescable
      // flags in place of the ORIGIN ones.
      Span s(span("model.reconstruct_ip"), /*parallel=*/true);
      std::vector<model::PageAnalysis> ip = analyses;
      for (model::PageAnalysis& a : ip) {
        for (model::EntryAnalysis& e : a.entries) {
          e.coalescable_origin = e.coalescable_ip;
        }
      }
      const auto reconstructed =
          model.reconstruct_batch(pages, ip, "", threads);
      for (const web::PageLoad& page : reconstructed) {
        sums.ideal_ip_plt_us += page.page_load_time().count_micros();
      }
    }
    {
      Span s(span("model.cert_plan"));
      model::PlannerAggregate aggregate;
      for (std::size_t i = 0; i < pages.size(); ++i) {
        aggregate.add(corpus.env(), planner.plan(pages[i]),
                      corpus.sites()[sites[first + i]].provider);
      }
      sums.sites_needing_change = aggregate.sites - aggregate.unchanged_sites;
      for (std::size_t n : aggregate.additions_per_site) {
        sums.san_additions += n;
      }
    }
    {
      Span s(span("measure.passive_observe"));
      const measure::PassivePipeline pipeline = observe(pages, first);
      sums.passive_sampled = pipeline.sampled_records();
      sums.passive_control =
          pipeline.new_connections(measure::Treatment::kControl);
      sums.passive_experiment =
          pipeline.new_connections(measure::Treatment::kExperiment);
    }
    return sums;
  }

  // §5.2 attribution of measure/stream.h: treatment and day are pure
  // functions of the page's eligible-site ordinal.
  measure::PassivePipeline observe(const std::vector<web::PageLoad>& pages,
                                   std::size_t first) const {
    measure::PassivePipeline pipeline(kPassiveSampleRate, kPassiveSeed);
    for (std::size_t i = 0; i < pages.size(); ++i) {
      pipeline.observe(pages[i], corpus.third_party_domain(),
                       measure::treatment_for_ordinal(first + i),
                       measure::day_for_ordinal(first + i));
    }
    return pipeline;
  }
};

}  // namespace

Outcome run_model_replay(const RunOptions& options) {
  Outcome out;
  Trace* trace = options.trace ? &out.trace : nullptr;
  // Set-up: build the corpus and collect its pages (analytic loads).
  std::vector<double> setup_samples;
  std::unique_ptr<dataset::Corpus> corpus;
  std::vector<web::PageLoad> pages;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pages.clear();
    corpus.reset();
    double seconds = 0;
    corpus = build_corpus(kSites, options.seed, options.threads, trace,
                          &seconds);
    const auto start = Clock::now();
    dataset::CollectOptions collect;
    collect.threads = options.threads;
    dataset::collect(*corpus, collect,
                     [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                       pages.push_back(load);
                     });
    setup_samples.push_back(seconds + seconds_since(start));
  }
  const std::vector<std::size_t> sites = eligible_sites(*corpus);
  out.check(sites.size() == pages.size(),
            "collect() returned a page count other than the eligible sites");
  std::uint64_t total_bytes = 0;
  std::uint64_t total_entries = 0;
  {
    util::ThreadPool pool(options.threads);
    for (std::uint64_t b : page_bytes(*corpus, sites, pool)) total_bytes += b;
  }
  for (const web::PageLoad& page : pages) total_entries += page.entries.size();
  const std::size_t total_pages = pages.size();

  // Contiguous blocks of pages; block_first[b] is the ordinal of its first.
  std::vector<std::vector<web::PageLoad>> blocks(kBlocks);
  std::vector<std::size_t> block_first(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t begin = total_pages * b / kBlocks;
    const std::size_t end = total_pages * (b + 1) / kBlocks;
    block_first[b] = begin;
    blocks[b].assign(std::make_move_iterator(pages.begin() + begin),
                     std::make_move_iterator(pages.begin() + end));
  }
  pages.clear();

  const model::CoalescingModel model(corpus->env());
  const model::CertPlanner planner(corpus->env(), model::Grouping::kAsn);
  const Replayer replayer{*corpus, sites, model, planner, options.threads};

  std::vector<ReplaySums> reference(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    reference[b] = replayer.replay(blocks[b], block_first[b], nullptr);
  }
  if (!options.trace) {
    const std::vector<double> seconds = median_block_seconds(
        kBlocks, options.seconds, [&](std::size_t b) {
          const ReplaySums sums =
              replayer.replay(blocks[b], block_first[b], nullptr);
          out.check(sums == reference[b],
                    "repeated replays of one page block differ");
          return out.check_failures.empty();
        });
    out.attempted = total_pages;
    double total_s = 0;
    for (double s : seconds) total_s += s;
    if (total_s > 0) {
      out.end_to_end["pages_per_s"] =
          static_cast<double>(total_pages) / total_s;
      out.end_to_end["requests_per_s"] =
          static_cast<double>(total_entries) / total_s;
      out.end_to_end["bytes_per_s"] =
          static_cast<double>(total_bytes) / total_s;
    }
    out.end_to_end["served_frac"] = 1.0;  // the analytic loader never fails
    out.end_to_end["setup_s"] = median(setup_samples);
  } else {
    double untraced = 0, traced_wall = 0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const auto untraced_start = Clock::now();
      const ReplaySums sums =
          replayer.replay(blocks[b], block_first[b], nullptr);
      untraced += seconds_since(untraced_start);
      out.check(sums == reference[b],
                "repeated replays of one page block differ");
      arm_alloc_counter(true);
      const auto start = Clock::now();
      const ReplaySums traced =
          replayer.replay(blocks[b], block_first[b], &out.trace);
      traced_wall += seconds_since(start);
      arm_alloc_counter(false);
      out.check(traced == reference[b], "traced replay differs from untraced");
      out.attempted += blocks[b].size();
    }
    double stage_ns = 0;
    for (const char* stage :
         {"model.analyze_batch", "model.reconstruct_batch",
          "model.reconstruct_ip", "model.cert_plan",
          "measure.passive_observe"}) {
      stage_ns += static_cast<double>(out.trace[stage].ns.load());
    }
    out.layer["trace.coverage"] = stage_ns / 1e9 / traced_wall;
    out.layer["trace.overhead_pct"] = (traced_wall / untraced - 1.0) * 100.0;
  }

  // The replayed aggregates must equal StreamingCorpus's StreamStats (and
  // its passive observer) for the same pages.
  {
    const std::size_t k = std::min(kCheckPages, blocks[0].size());
    dataset::StreamingOptions stream;
    stream.threads = options.threads;
    stream.max_sites = k;
    measure::PassiveShardObserver observer(corpus->third_party_domain(),
                                           kPassiveSampleRate, kPassiveSeed,
                                           options.threads);
    stream.observer = &observer;
    dataset::StreamingCorpus streaming(*corpus, stream);
    auto streamed = streaming.run();
    out.check(streamed.ok(), "StreamingCorpus::run() failed on the check "
                             "prefix");

    const std::vector<web::PageLoad> prefix(blocks[0].begin(),
                                            blocks[0].begin() + k);
    const auto analyses = model.analyze_batch(prefix, options.threads);
    const auto reconstructed =
        model.reconstruct_batch(prefix, analyses, "", options.threads);
    dataset::StreamStats mine;
    for (const web::PageLoad& page : prefix) {
      mine.pages += 1;
      mine.entries += page.entries.size();
      mine.measured_dns += page.dns_query_count();
      mine.measured_tls += page.tls_connection_count();
      mine.measured_validations += page.certificate_validation_count();
      mine.measured_plt_us += page.page_load_time().count_micros();
      mine.measured_digest =
          util::fnv1a64(web::to_har_string(page), mine.measured_digest);
    }
    for (const model::PageAnalysis& a : analyses) {
      mine.ideal_origin_dns += a.ideal_origin_dns;
      mine.ideal_origin_tls += a.ideal_origin_tls;
      mine.ideal_origin_validations += a.ideal_origin_validations;
      mine.ideal_ip_dns += a.ideal_ip_dns;
      mine.ideal_ip_tls += a.ideal_ip_tls;
    }
    for (const web::PageLoad& page : reconstructed) {
      mine.reconstructed_plt_us += page.page_load_time().count_micros();
      mine.reconstructed_digest =
          util::fnv1a64(web::to_har_string(page), mine.reconstructed_digest);
    }
    const measure::PassivePipeline passive = replayer.observe(prefix, 0);
    if (streamed.ok()) {
      const dataset::StreamStats& s = streamed.value();
      out.check(
          s.pages == mine.pages && s.entries == mine.entries &&
              s.measured_digest == mine.measured_digest &&
              s.reconstructed_digest == mine.reconstructed_digest &&
              s.measured_dns == mine.measured_dns &&
              s.measured_tls == mine.measured_tls &&
              s.measured_validations == mine.measured_validations &&
              s.ideal_origin_dns == mine.ideal_origin_dns &&
              s.ideal_origin_tls == mine.ideal_origin_tls &&
              s.ideal_origin_validations == mine.ideal_origin_validations &&
              s.ideal_ip_dns == mine.ideal_ip_dns &&
              s.ideal_ip_tls == mine.ideal_ip_tls &&
              s.measured_plt_us == mine.measured_plt_us &&
              s.reconstructed_plt_us == mine.reconstructed_plt_us,
          "model_replay aggregates differ from StreamingCorpus StreamStats");
      const measure::PassiveStreamStats p = observer.stats();
      out.check(p.sampled == passive.sampled_records() &&
                    p.control_connections ==
                        passive.new_connections(measure::Treatment::kControl) &&
                    p.experiment_connections ==
                        passive.new_connections(
                            measure::Treatment::kExperiment),
                "passive observe differs from PassiveShardObserver");
    }
  }
  return out;
}

}  // namespace perfbench
