#include "dataset/corpus.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "dataset/collector.h"
#include "dataset/snapshot.h"
#include "model/coalescing_model.h"
#include "util/crash.h"
#include "util/hash.h"
#include "util/hot_path.h"
#include "util/thread_pool.h"
#include "web/har_json.h"

namespace origin::dataset {

namespace {

std::uint64_t digest_page(const web::PageLoad& load, std::uint64_t digest) {
  return web::har_fingerprint(load, digest);
}

// Recognizes `shard_NNNNNN.ocs` spill files and extracts the index, so the
// spill-dir sweep can tell journaled shards from stale leftovers.
bool parse_shard_filename(const std::string& name, std::uint64_t* index) {
  constexpr std::string_view kPrefix = "shard_";
  constexpr std::string_view kSuffix = ".ocs";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *index = value;
  return true;
}

// Deletes every `*.ocs` directly inside `dir` (fresh-start hygiene for the
// quarantine subdirectory). Missing directory is zero.
std::size_t sweep_shard_files(const std::string& dir) {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::uint64_t index = 0;
    if (!parse_shard_filename(entry.path().filename().string(), &index)) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec)) ++removed;
  }
  return removed;
}

// Shared per-page aggregation between the streamed and materialized paths.
struct Aggregator {
  StreamStats stats;

  void measured(const web::PageLoad& load) {
    stats.pages += 1;
    stats.entries += load.entries.size();
    stats.measured_dns += load.dns_query_count();
    stats.measured_tls += load.tls_connection_count();
    stats.measured_validations += load.certificate_validation_count();
    stats.measured_plt_us += load.page_load_time().count_micros();
    stats.measured_digest = digest_page(load, stats.measured_digest);
  }

  void analyzed(const model::PageAnalysis& analysis) {
    stats.ideal_origin_dns += analysis.ideal_origin_dns;
    stats.ideal_origin_tls += analysis.ideal_origin_tls;
    stats.ideal_origin_validations += analysis.ideal_origin_validations;
    stats.ideal_ip_dns += analysis.ideal_ip_dns;
    stats.ideal_ip_tls += analysis.ideal_ip_tls;
  }

  void reconstructed(const web::PageLoad& load) {
    stats.reconstructed_plt_us += load.page_load_time().count_micros();
    stats.reconstructed_digest =
        digest_page(load, stats.reconstructed_digest);
  }
};

}  // namespace

// --- StreamingCorpus ------------------------------------------------------

StreamingCorpus::StreamingCorpus(Corpus& corpus, StreamingOptions options)
    : corpus_(corpus), options_(std::move(options)) {
  if (!options_.resume) {
    const char* env = std::getenv("ORIGIN_RESUME");
    options_.resume = env != nullptr && env[0] == '1';
  }
  eligible_ = eligible_site_list(corpus_, options_.max_sites);
}

std::size_t StreamingCorpus::resolved_per_shard() const {
  std::size_t per_shard = options_.sites_per_shard;
  if (options_.shard_count != 0) {
    per_shard = (eligible_.size() + options_.shard_count - 1) /
                options_.shard_count;
  }
  return std::max<std::size_t>(per_shard, 1);
}

std::size_t StreamingCorpus::shard_site_count(std::size_t first_site) const {
  return std::min(resolved_per_shard(), eligible_.size() - first_site);
}

std::uint64_t StreamingCorpus::config_digest() const {
  // Everything here changes the bytes of every shard, so a mismatch means
  // nothing in the old spill directory is reusable. Environment shape
  // (link/handshake/resolver params) folds in through the corpus seed,
  // which fixes the synthesized world those models act on.
  util::ByteWriter writer(128);
  writer.u64(corpus_.options().seed);
  writer.u64(eligible_.size());
  writer.u64(resolved_per_shard());
  const browser::LoaderOptions& loader = options_.loader;
  writer.raw(loader.policy);
  writer.u64(loader.seed);
  writer.u64(loader.first_connection_id);
  writer.u64(std::bit_cast<std::uint64_t>(loader.happy_eyeballs_extra_dns));
  writer.u64(std::bit_cast<std::uint64_t>(loader.speculative_extra_connection));
  writer.u64(std::bit_cast<std::uint64_t>(loader.misdirected_rate));
  writer.u8(loader.fresh_session ? 1 : 0);
  writer.raw(loader.network_tag);
  return util::crc64(writer.bytes());
}

util::Status StreamingCorpus::prepare_spill_dir(
    util::FlatMap<std::uint64_t, ManifestRecord>* completed) {
  const std::string& dir = options_.spill_dir;
  const std::string quarantine_dir = dir + "/quarantine";

  // Torn temps first: anything `.tmp` is a crashed write that never
  // committed; the resume logic must never see one.
  auto swept = util::sweep_stale_temps(dir);
  if (!swept.ok()) return swept.error();
  recovery_.stale_temps_swept += swept.value();
  auto swept_quarantine = util::sweep_stale_temps(quarantine_dir);
  if (!swept_quarantine.ok()) return swept_quarantine.error();
  recovery_.stale_temps_swept += swept_quarantine.value();

  const std::size_t per_shard = resolved_per_shard();
  ManifestHeader expected;
  expected.config_digest = config_digest();
  expected.corpus_seed = corpus_.options().seed;
  expected.eligible_sites = eligible_.size();
  expected.sites_per_shard = per_shard;
  expected.shard_total = (eligible_.size() + per_shard - 1) / per_shard;

  const std::string journal = manifest_file_path(dir);
  bool replayed = false;
  if (options_.resume) {
    auto bytes = util::read_file(journal);
    if (bytes.ok()) {
      auto parsed = read_manifest(bytes.value());
      if (parsed.ok() && parsed->header == expected) {
        replayed = true;
        recovery_.manifest_records_replayed += parsed->records.size();
        recovery_.manifest_tail_bytes_dropped += parsed->tail_bytes_dropped;
        *completed = parsed->latest_records();
        if (parsed->tail_bytes_dropped != 0) {
          // Rewrite the journal to its validated prefix (rename-commit) so
          // new appends start on a record boundary, not after a torn frame.
          const std::span<const std::uint8_t> prefix(
              bytes.value().data(),
              bytes.value().size() - parsed->tail_bytes_dropped);
          auto truncated = util::durable_write_file(journal, prefix);
          if (!truncated.ok()) return truncated;
        }
      } else {
        // Corrupt header or a different run configuration: nothing in the
        // journal is trustworthy for this run. Start fresh.
        recovery_.manifest_resets += 1;
      }
    }
  }

  // Sweep shard files the journal does not vouch for: everything on a
  // fresh start, and on resume any file outside the replayed record set
  // (e.g. a post-rename orphan whose manifest append never ran).
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::uint64_t index = 0;
    if (!parse_shard_filename(entry.path().filename().string(), &index)) {
      continue;
    }
    if (replayed && completed->find(index) != nullptr &&
        index < expected.shard_total) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec)) {
      recovery_.stale_shards_removed += 1;
    }
  }
  if (!replayed) {
    // Quarantined evidence from older runs goes too; a fresh run starts
    // from a clean directory.
    recovery_.stale_shards_removed += sweep_shard_files(quarantine_dir);
    auto header_written =
        util::durable_write_file(journal, encode_manifest_header(expected));
    if (!header_written.ok()) return header_written;
  }

  auto log = util::DurableLog::open(journal);
  if (!log.ok()) return log.error();
  manifest_log_ = std::move(log).value();
  return util::Status::ok_status();
}

util::Result<util::Bytes> StreamingCorpus::build_shard(ShardInfo& info,
                                                       util::ThreadPool& pool) {
  const std::size_t count = shard_site_count(info.first_site);

  const std::vector<web::PageLoad> loads =
      load_sites(corpus_, options_.loader,
                 std::span(eligible_).subspan(info.first_site, count), pool);
  if (util::crash::crash_point("generate.load")) {
    return util::make_error("corpus: crash injected at generate.load");
  }

  // Serial columnar append in site order (symbol ids are first-appearance
  // order, part of the canonical snapshot form).
  columns_.clear();
  columns_.set_identity(info.index, corpus_.options().seed, info.first_site);
  for (const web::PageLoad& load : loads) columns_.append_page(load);

  info.pages = columns_.page_count();
  info.entries = columns_.entry_count();
  util::Bytes encoded = encode_snapshot(columns_);
  if (util::crash::crash_point("generate.encode")) {
    return util::make_error("corpus: crash injected at generate.encode");
  }
  info.encoded_bytes = encoded.size();
  info.content_crc64 = util::crc64(encoded);
  return encoded;
}

util::Status StreamingCorpus::commit_shard(ShardInfo& info,
                                           std::span<const std::uint8_t> bytes) {
  info.path = shard_file_path(options_.spill_dir, info.index);
  // Data first (rename commits the bytes), fact second (the journal record
  // commits "this shard is done"). A crash between the two leaves an
  // unrecorded file that the next run sweeps and regenerates — never a
  // record pointing at missing or torn data.
  auto written = write_shard_file(info.path, bytes);
  if (!written.ok()) return written;
  if (util::crash::crash_point("manifest.append")) {
    return util::make_error("corpus: crash injected at manifest.append (" +
                            info.path + ")");
  }
  ManifestRecord record;
  record.shard_index = info.index;
  record.first_site = info.first_site;
  record.pages = info.pages;
  record.entries = info.entries;
  record.encoded_bytes = info.encoded_bytes;
  record.content_crc64 = info.content_crc64;
  return manifest_log_.append(encode_manifest_record(record));
}

util::Status StreamingCorpus::generate() {
  shards_.clear();
  const std::size_t per_shard = resolved_per_shard();
  const bool spilling = !options_.spill_dir.empty();
  util::FlatMap<std::uint64_t, ManifestRecord> completed;
  if (spilling) {
    auto prepared = prepare_spill_dir(&completed);
    if (!prepared.ok()) return prepared;
  }

  util::ThreadPool pool(options_.threads);
  for (std::size_t begin = 0; begin < eligible_.size(); begin += per_shard) {
    ShardInfo info;
    info.index = shards_.size();
    info.first_site = begin;

    if (spilling) {
      if (const ManifestRecord* record = completed.find(info.index)) {
        // Journaled shard: reuse it if the committed file is present with
        // the journaled size. Full CRC verification happens when analyze()
        // reads it back (a mismatch there quarantines and rebuilds), so
        // resume cost stays proportional to the *unfinished* work.
        const std::string path =
            shard_file_path(options_.spill_dir, info.index);
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec && record->first_site == begin &&
            size == record->encoded_bytes) {
          info.pages = static_cast<std::size_t>(record->pages);
          info.entries = static_cast<std::size_t>(record->entries);
          info.encoded_bytes = static_cast<std::size_t>(record->encoded_bytes);
          info.content_crc64 = record->content_crc64;
          info.path = path;
          recovery_.shards_reused += 1;
          shards_.push_back(std::move(info));
          continue;
        }
        recovery_.shards_regenerated += 1;
      }
    }

    auto encoded = build_shard(info, pool);
    if (!encoded.ok()) return encoded.error();
    if (!spilling) {
      info.buffer = std::move(encoded).value();
    } else {
      auto committed = commit_shard(info, encoded.value());
      if (!committed.ok()) return committed;
    }
    shards_.push_back(std::move(info));
  }
  generated_ = true;
  return util::Status::ok_status();
}

util::Result<util::Bytes> StreamingCorpus::load_or_recover_shard(
    ShardInfo& shard, util::ThreadPool& pool) {
  auto read = read_shard_file(shard.path);
  if (read.ok() && util::crc64(read.value()) == shard.content_crc64) {
    return std::move(read).value();
  }
  // The journaled CRC does not match the bytes on disk (bit rot, a flipped
  // byte, a foreign file under the right name) — or the file vanished.
  // Move the evidence aside and rebuild the shard from its site range; the
  // regenerated bytes are deterministic, so the stream is unaffected.
  recovery_.shards_quarantined += 1;
  if (read.ok()) {
    auto quarantined = util::durable_write_file(
        quarantine_file_path(options_.spill_dir, shard.index), read.value());
    if (!quarantined.ok()) return quarantined.error();
  }
  auto rebuilt = build_shard(shard, pool);
  if (!rebuilt.ok()) return rebuilt.error();
  auto committed = commit_shard(shard, rebuilt.value());
  if (!committed.ok()) return committed.error();
  return std::move(rebuilt).value();
}

util::Result<StreamStats> StreamingCorpus::analyze() {
  if (!generated_) {
    return util::make_error("StreamingCorpus::analyze() before generate()");
  }
  // A resumed analyze restarts the sweep from shard 0; stateful observers
  // reset here so they see exactly one stream either way.
  if (options_.observer != nullptr) options_.observer->on_stream_restart();

  Aggregator agg;
  agg.stats.sites = eligible_.size();
  agg.stats.shards = shards_.size();

  model::CoalescingModel model(corpus_.env());
  util::ThreadPool pool(options_.threads);

  std::vector<web::PageLoad> pages;
  for (ShardInfo& shard : shards_) {
    util::Bytes file_bytes;
    std::span<const std::uint8_t> bytes;
    if (!shard.path.empty()) {
      auto loaded = load_or_recover_shard(shard, pool);
      if (!loaded.ok()) return loaded.error();
      file_bytes = std::move(loaded).value();
      bytes = file_bytes;
    } else {
      bytes = shard.buffer;
    }
    agg.stats.snapshot_bytes += bytes.size();

    auto reader = SnapshotReader::open(bytes);
    if (!reader.ok()) return reader.error();
    const std::size_t page_count =
        static_cast<std::size_t>(reader->meta().pages);

    pages.assign(page_count, web::PageLoad{});
    for (std::size_t i = 0; i < page_count; ++i) {
      reader.value().next_page(&pages[i]);
    }
    for (const web::PageLoad& page : pages) agg.measured(page);

    const auto analyses = model.analyze_batch(pages, options_.threads);
    for (const model::PageAnalysis& analysis : analyses) {
      agg.analyzed(analysis);
    }

    if (options_.observer != nullptr) {
      options_.observer->on_shard(pages, shard.first_site);
    }

    const auto reconstructed =
        model.reconstruct_batch(pages, analyses, "", options_.threads);
    for (const web::PageLoad& page : reconstructed) agg.reconstructed(page);

    if (util::crash::crash_point("analyze.shard")) {
      return util::make_error("corpus: crash injected at analyze.shard");
    }
  }

  // Deletion is deferred to here: until the whole sweep has succeeded the
  // spilled shards and the journal ARE the resume state. Only a complete
  // run may retire them.
  if (!options_.keep_shards) {
    for (ShardInfo& shard : shards_) {
      if (shard.path.empty()) continue;
      auto removed = remove_shard_file(shard.path);
      if (!removed.ok()) return removed.error();
      shard.path.clear();
    }
    if (manifest_log_.is_open()) {
      const std::string journal = manifest_log_.path();
      manifest_log_.close();
      auto removed = util::remove_file(journal);
      if (!removed.ok()) return removed.error();
    }
  }
  return agg.stats;
}

util::Result<StreamStats> StreamingCorpus::run() {
  auto generated = generate();
  if (!generated.ok()) return generated.error();
  return analyze();
}

// --- materialized reference path ------------------------------------------

util::Result<StreamStats> run_materialized(Corpus& corpus,
                                           const StreamingOptions& options) {
  CollectOptions collect_options;
  collect_options.loader = options.loader;
  collect_options.max_sites = options.max_sites;
  collect_options.threads = options.threads;

  // The seed's shape: the whole corpus resident as one vector of structs.
  std::vector<web::PageLoad> loads;
  dataset::collect(corpus, collect_options,
                   [&](const SiteInfo&, const web::PageLoad& load) {
                     loads.push_back(load);
                   });

  Aggregator agg;
  agg.stats.sites = loads.size();
  agg.stats.shards = 0;
  for (const web::PageLoad& load : loads) agg.measured(load);

  model::CoalescingModel model(corpus.env());
  const auto analyses = model.analyze_batch(loads, options.threads);
  for (const model::PageAnalysis& analysis : analyses) {
    agg.analyzed(analysis);
  }

  // One whole-corpus "shard": observer record order matches the streamed
  // path's shard-by-shard calls exactly.
  if (options.observer != nullptr) {
    options.observer->on_stream_restart();
    options.observer->on_shard(loads, 0);
  }

  const auto reconstructed =
      model.reconstruct_batch(loads, analyses, "", options.threads);
  for (const web::PageLoad& page : reconstructed) agg.reconstructed(page);

  return agg.stats;
}

}  // namespace origin::dataset
