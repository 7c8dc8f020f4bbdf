// Streaming dataset collection: the WebPageTest stand-in at corpus scale.
//
// Loads every successfully-crawled site's page with the analytic loader
// (Chrome v88-equivalent policy: chromium-ip) and hands each PageLoad to a
// sink. Nothing is retained, so 300K-site runs stay memory-bounded.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "browser/page_loader.h"
#include "dataset/generator.h"
#include "util/thread_pool.h"
#include "web/har.h"

namespace origin::dataset {

struct CollectOptions {
  browser::LoaderOptions loader;  // policy defaults to chromium-ip
  // Load at most this many (successful) sites; 0 = all.
  std::size_t max_sites = 0;
  // Worker threads for page loading. 0 resolves via ORIGIN_THREADS /
  // hardware concurrency; 1 is the serial fallback. Output is bit-identical
  // at any thread count: every site gets its own loader (seed mixed from the
  // base seed and the site index, connection ids from a disjoint per-site
  // block) and the sink always runs serially in site-index order.
  std::size_t threads = 1;
};

using PageSink =
    std::function<void(const SiteInfo& site, const web::PageLoad& load)>;

// Returns the number of pages loaded.
std::size_t collect(Corpus& corpus, const CollectOptions& options,
                    const PageSink& sink);

// Per-site loader configuration: seed mixed from the base seed and the site
// index, connection ids from a disjoint per-site block. Shared by collect()
// and the streaming shard loader (dataset/corpus.h) so both produce
// bit-identical pages for a given site at any thread count and any shard
// boundary.
browser::LoaderOptions loader_options_for_site(
    const browser::LoaderOptions& base, std::size_t site_index);

// The work list of collect() and the streaming pipeline: indices of the
// crawl-succeeded sites in index order, at most `max_sites` of them (0 =
// all). Decided from corpus state alone, so it is identical at any thread
// count.
std::vector<std::size_t> eligible_site_list(const Corpus& corpus,
                                            std::size_t max_sites);

// Loads `sites` in parallel on `pool`, each with its own per-site loader
// (loader_options_for_site), and returns the pages in `sites` order.
std::vector<web::PageLoad> load_sites(Corpus& corpus,
                                      const browser::LoaderOptions& base,
                                      std::span<const std::size_t> sites,
                                      util::ThreadPool& pool);

}  // namespace origin::dataset
