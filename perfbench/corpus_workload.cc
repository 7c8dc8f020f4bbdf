// corpus_stream: the §3–4 pipeline as users run it,
// dataset::StreamingCorpus::run() with a spill directory over a corpus built
// from the seed.
//
// The traced run re-executes the same sweep stage by stage through public
// calls only (an outside-in copy of StreamingCorpus::generate/analyze), so
// each stage gets its own span without instrumenting src/. The copy must
// reproduce StreamingCorpus::run()'s digests and §4.2 aggregates exactly, or
// the run fails.
#include <filesystem>
#include <string>
#include <vector>

#include "dataset/collector.h"
#include "dataset/corpus.h"
#include "dataset/snapshot.h"
#include "model/coalescing_model.h"
#include "util/fnv.h"
#include "util/hash.h"
#include "web/har_json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace origin;
using dataset::StreamStats;

// Four corpora of ≈320 eligible pages each (≈1,270 pages in all), seeded
// from the run seed. One sweep of one corpus takes ~1 s on 4 threads, so a
// run times each corpus several times.
constexpr std::size_t kCorpora = 4;
constexpr std::size_t kSitesPerCorpus = 500;
// Several shards per sweep, so spill, read-back and the one-shard-resident
// replay all run.
constexpr std::size_t kSitesPerShard = 256;
// Corpus for the streamed-vs-materialized equality check.
constexpr std::size_t kCheckSites = 120;

dataset::StreamingOptions stream_options(std::size_t threads,
                                         const std::string& spill_dir) {
  dataset::StreamingOptions options;
  options.threads = threads;
  options.sites_per_shard = kSitesPerShard;
  options.spill_dir = spill_dir;
  return options;
}

// Every StreamStats field the streamed and materialized paths share
// (`shards` and `snapshot_bytes` exist only when streaming).
bool same_results(const StreamStats& a, const StreamStats& b) {
  return a.sites == b.sites && a.pages == b.pages && a.entries == b.entries &&
         a.measured_digest == b.measured_digest &&
         a.reconstructed_digest == b.reconstructed_digest &&
         a.measured_dns == b.measured_dns && a.measured_tls == b.measured_tls &&
         a.measured_validations == b.measured_validations &&
         a.ideal_origin_dns == b.ideal_origin_dns &&
         a.ideal_origin_tls == b.ideal_origin_tls &&
         a.ideal_origin_validations == b.ideal_origin_validations &&
         a.ideal_ip_dns == b.ideal_ip_dns && a.ideal_ip_tls == b.ideal_ip_tls &&
         a.measured_plt_us == b.measured_plt_us &&
         a.reconstructed_plt_us == b.reconstructed_plt_us;
}

bool same_stream(const StreamStats& a, const StreamStats& b) {
  return same_results(a, b) && a.shards == b.shards &&
         a.snapshot_bytes == b.snapshot_bytes;
}

// Per-layer figures of the traced copy that are not span totals.
struct SweepCounters {
  std::uint64_t har_bytes = 0;
  std::uint64_t har_pages = 0;
};

// One spilled shard of the traced copy.
struct ShardFile {
  std::string path;
  std::uint64_t crc = 0;
};

// StreamingCorpus::run() re-executed through public calls, one span per
// stage. Mirrors generate() (parallel page loads, serial columnar append,
// encode, durable spill) and analyze() (read back, verify, decode,
// fingerprint, model batches, fingerprint the reconstruction).
util::Result<StreamStats> traced_sweep(dataset::Corpus& corpus,
                                       std::size_t threads,
                                       const std::string& spill_dir,
                                       Trace& trace, SweepCounters& counters) {
  SpanStat& page_load = trace["browser.page_load"];
  SpanStat& page_load_item = trace["browser.page_load.item"];
  SpanStat& append = trace["dataset.columns_append"];
  SpanStat& encode = trace["dataset.snapshot_encode"];
  SpanStat& write = trace["dataset.shard_write"];
  SpanStat& read = trace["dataset.shard_read"];
  SpanStat& decode = trace["dataset.snapshot_decode"];
  SpanStat& fingerprint = trace["web.har_fingerprint"];
  SpanStat& analyze = trace["model.analyze"];
  SpanStat& reconstruct = trace["model.reconstruct"];

  const std::vector<std::size_t> eligible = eligible_sites(corpus);
  const browser::LoaderOptions base = stream_options(threads, "").loader;
  StreamStats stats;
  stats.sites = eligible.size();

  std::filesystem::create_directories(spill_dir);
  util::ThreadPool pool(threads);
  dataset::TimelineColumns columns;
  std::vector<ShardFile> files;
  for (std::size_t begin = 0; begin < eligible.size();
       begin += kSitesPerShard) {
    const std::size_t count =
        std::min(kSitesPerShard, eligible.size() - begin);
    std::vector<web::PageLoad> loads(count);
    {
      Span span(&page_load, /*parallel=*/true);
      pool.parallel_for_index(count, [&](std::size_t k) {
        Span item(&page_load_item);
        const std::size_t site = eligible[begin + k];
        browser::PageLoader loader(
            corpus.env(), dataset::loader_options_for_site(base, site));
        loads[k] = loader.load(corpus.page_for_site(site));
      });
    }
    {
      Span span(&append);
      columns.clear();
      columns.set_identity(files.size(), corpus.options().seed, begin);
      for (const web::PageLoad& load : loads) columns.append_page(load);
    }
    util::Bytes encoded;
    ShardFile file;
    {
      Span span(&encode);
      encoded = dataset::encode_snapshot(columns);
      file.crc = util::crc64(encoded);
    }
    file.path = dataset::shard_file_path(spill_dir, files.size());
    {
      Span span(&write);
      auto written = dataset::write_shard_file(file.path, encoded);
      if (!written.ok()) return written.error();
    }
    files.push_back(std::move(file));
  }
  stats.shards = files.size();

  model::CoalescingModel model(corpus.env());
  std::vector<web::PageLoad> pages;
  for (const ShardFile& file : files) {
    util::Bytes bytes;
    {
      Span span(&read);
      auto loaded = dataset::read_shard_file(file.path);
      if (!loaded.ok()) return loaded.error();
      bytes = std::move(loaded).value();
      if (util::crc64(bytes) != file.crc) {
        return util::make_error("traced sweep: shard CRC mismatch on read");
      }
    }
    stats.snapshot_bytes += bytes.size();
    {
      Span span(&decode);
      auto reader = dataset::SnapshotReader::open(bytes);
      if (!reader.ok()) return reader.error();
      pages.assign(static_cast<std::size_t>(reader->meta().pages),
                   web::PageLoad{});
      for (web::PageLoad& page : pages) reader.value().next_page(&page);
    }
    {
      Span span(&fingerprint);
      for (const web::PageLoad& page : pages) {
        const std::string har = web::to_har_string(page);
        stats.measured_digest = util::fnv1a64(har, stats.measured_digest);
        counters.har_bytes += har.size();
      }
    }
    counters.har_pages += pages.size();
    for (const web::PageLoad& page : pages) {
      stats.pages += 1;
      stats.entries += page.entries.size();
      stats.measured_dns += page.dns_query_count();
      stats.measured_tls += page.tls_connection_count();
      stats.measured_validations += page.certificate_validation_count();
      stats.measured_plt_us += page.page_load_time().count_micros();
    }
    std::vector<model::PageAnalysis> analyses;
    {
      Span span(&analyze, /*parallel=*/true);
      analyses = model.analyze_batch(pages, threads);
    }
    for (const model::PageAnalysis& analysis : analyses) {
      stats.ideal_origin_dns += analysis.ideal_origin_dns;
      stats.ideal_origin_tls += analysis.ideal_origin_tls;
      stats.ideal_origin_validations += analysis.ideal_origin_validations;
      stats.ideal_ip_dns += analysis.ideal_ip_dns;
      stats.ideal_ip_tls += analysis.ideal_ip_tls;
    }
    std::vector<web::PageLoad> reconstructed;
    {
      Span span(&reconstruct, /*parallel=*/true);
      reconstructed = model.reconstruct_batch(pages, analyses, "", threads);
    }
    {
      Span span(&fingerprint);
      for (const web::PageLoad& page : reconstructed) {
        const std::string har = web::to_har_string(page);
        stats.reconstructed_digest =
            util::fnv1a64(har, stats.reconstructed_digest);
        counters.har_bytes += har.size();
      }
    }
    counters.har_pages += reconstructed.size();
    for (const web::PageLoad& page : reconstructed) {
      stats.reconstructed_plt_us += page.page_load_time().count_micros();
    }
  }
  for (const ShardFile& file : files) {
    auto removed = dataset::remove_shard_file(file.path);
    if (!removed.ok()) return removed.error();
  }
  return stats;
}

}  // namespace

Outcome run_corpus_stream(const RunOptions& options) {
  Outcome out;
  Trace* trace = options.trace ? &out.trace : nullptr;
  // Set-up: generating every corpus, as users do on each run.
  std::vector<std::unique_ptr<dataset::Corpus>> corpora;
  std::vector<double> setup_samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    corpora.clear();  // one set resident at a time
    double seconds = 0;
    for (std::size_t c = 0; c < kCorpora; ++c) {
      corpora.push_back(build_corpus(kSitesPerCorpus,
                                     util::fnv1a64_mix(options.seed, c),
                                     options.threads, trace, &seconds));
    }
    setup_samples.push_back(seconds);
  }
  const std::string spill_dir = options.work_dir + "/corpus_stream";

  std::uint64_t total_bytes = 0;
  {
    util::ThreadPool pool(options.threads);
    for (const auto& corpus : corpora) {
      for (std::uint64_t b :
           page_bytes(*corpus, eligible_sites(*corpus), pool)) {
        total_bytes += b;
      }
    }
  }

  // One sweep exactly as users run it.
  auto sweep = [&](std::size_t c, StreamStats* stats) {
    dataset::StreamingCorpus streaming(
        *corpora[c], stream_options(options.threads, spill_dir));
    auto result = streaming.run();
    out.check(result.ok(), "StreamingCorpus::run() failed: " +
                               (result.ok() ? "" : result.error().message));
    if (result.ok()) *stats = result.value();
    return result.ok();
  };

  std::vector<StreamStats> reference(kCorpora);
  if (!options.trace) {
    std::vector<bool> have_reference(kCorpora, false);
    const std::vector<double> seconds = median_block_seconds(
        kCorpora, options.seconds, [&](std::size_t c) {
          StreamStats stats;
          if (!sweep(c, &stats)) return false;
          if (!have_reference[c]) {
            reference[c] = stats;
            have_reference[c] = true;
          }
          out.check(same_stream(stats, reference[c]),
                    "repeated sweeps of one corpus differ");
          return out.check_failures.empty();
        });
    double total_s = 0, pages = 0, entries = 0;
    for (double s : seconds) total_s += s;
    for (const StreamStats& stats : reference) {
      out.attempted += stats.pages;
      pages += static_cast<double>(stats.pages);
      entries += static_cast<double>(stats.entries);
    }
    if (total_s > 0) {
      out.end_to_end["pages_per_s"] = pages / total_s;
      out.end_to_end["requests_per_s"] = entries / total_s;
      out.end_to_end["bytes_per_s"] =
          static_cast<double>(total_bytes) / total_s;
    }
    out.end_to_end["served_frac"] = 1.0;  // the analytic loader never fails
    out.end_to_end["setup_s"] = median(setup_samples);
  } else {
    // Per corpus: an untraced sweep for the reference digests and the
    // overhead base, then the outside-in copy with every stage under a
    // span.
    double untraced = 0, traced_wall = 0, pages = 0, snapshot_bytes = 0;
    SweepCounters counters;
    for (std::size_t c = 0; c < kCorpora; ++c) {
      const auto untraced_start = Clock::now();
      if (!sweep(c, &reference[c])) break;
      untraced += seconds_since(untraced_start);
      out.attempted += reference[c].pages;
      pages += static_cast<double>(reference[c].pages);
      snapshot_bytes += static_cast<double>(reference[c].snapshot_bytes);
      arm_alloc_counter(true);
      const auto start = Clock::now();
      auto traced = traced_sweep(*corpora[c], options.threads,
                                 spill_dir + "_traced", out.trace, counters);
      traced_wall += seconds_since(start);
      arm_alloc_counter(false);
      out.check(traced.ok(), "traced sweep failed: " +
                                 (traced.ok() ? "" : traced.error().message));
      out.check(traced.ok() && same_stream(traced.value(), reference[c]),
                "traced stage-by-stage sweep differs from "
                "StreamingCorpus::run()");
    }
    double stage_ns = 0;
    for (const char* stage :
         {"browser.page_load", "dataset.columns_append",
          "dataset.snapshot_encode", "dataset.shard_write",
          "dataset.shard_read", "dataset.snapshot_decode",
          "web.har_fingerprint", "model.analyze", "model.reconstruct"}) {
      stage_ns += static_cast<double>(out.trace[stage].ns.load());
    }
    const double load_wall_ms = out.trace["browser.page_load"].ms();
    const double load_busy_ms = out.trace["browser.page_load.item"].ms();
    out.layer["browser.page_load.busy_ms"] = load_busy_ms;
    if (load_wall_ms > 0) {
      out.layer["browser.page_load_util"] =
          load_busy_ms /
          (load_wall_ms * static_cast<double>(options.threads));
    }
    if (pages > 0) {
      out.layer["dataset.snapshot_bytes_per_page"] = snapshot_bytes / pages;
    }
    if (counters.har_pages > 0) {
      out.layer["web.har_bytes_per_page"] =
          static_cast<double>(counters.har_bytes) /
          static_cast<double>(counters.har_pages);
    }
    if (traced_wall > 0 && untraced > 0) {
      out.layer["trace.coverage"] = stage_ns / 1e9 / traced_wall;
      out.layer["trace.overhead_pct"] = (traced_wall / untraced - 1.0) * 100.0;
    }
  }

  // Streamed results must equal the fully materialized reference path on
  // a small corpus from the same seed.
  {
    double ignored = 0;
    auto small = build_corpus(kCheckSites, options.seed, options.threads,
                              nullptr, &ignored);
    dataset::StreamingCorpus streaming(
        *small, stream_options(options.threads, spill_dir + "_check"));
    auto streamed = streaming.run();
    auto materialized = dataset::run_materialized(
        *small, stream_options(options.threads, ""));
    out.check(streamed.ok() && materialized.ok() &&
                  same_results(streamed.value(), materialized.value()),
              "streamed StreamStats differ from run_materialized");
  }
  return out;
}

}  // namespace perfbench
