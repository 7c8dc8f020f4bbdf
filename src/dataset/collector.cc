#include "dataset/collector.h"

#include <algorithm>
#include <vector>

#include "util/fnv.h"

namespace origin::dataset {

namespace {
// Each site's loader hands out connection ids from its own disjoint block so
// ids stay globally unique and independent of worker scheduling. 2^20 ids per
// site is far beyond any single page's connection count.
constexpr std::uint64_t kConnectionIdStride = 1ull << 20;
}  // namespace

browser::LoaderOptions loader_options_for_site(
    const browser::LoaderOptions& base, std::size_t site_index) {
  browser::LoaderOptions site_options = base;
  site_options.seed = origin::util::fnv1a64_mix(
      base.seed, static_cast<std::uint64_t>(site_index));
  site_options.first_connection_id =
      base.first_connection_id +
      static_cast<std::uint64_t>(site_index) * kConnectionIdStride;
  return site_options;
}

std::vector<std::size_t> eligible_site_list(const Corpus& corpus,
                                            std::size_t max_sites) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    if (!corpus.sites()[i].crawl_succeeded) continue;
    if (max_sites != 0 && eligible.size() >= max_sites) break;
    eligible.push_back(i);
  }
  return eligible;
}

std::vector<web::PageLoad> load_sites(Corpus& corpus,
                                      const browser::LoaderOptions& base,
                                      std::span<const std::size_t> sites,
                                      origin::util::ThreadPool& pool) {
  // Per-site seeds and connection-id blocks come from the site index
  // alone, so worker scheduling cannot leak into the pages.
  std::vector<web::PageLoad> loads(sites.size());
  pool.parallel_for_index(sites.size(), [&](std::size_t k) {
    browser::PageLoader loader(corpus.env(),
                               loader_options_for_site(base, sites[k]));
    loads[k] = loader.load(corpus.page_for_site(sites[k]));
  });
  return loads;
}

std::size_t collect(Corpus& corpus, const CollectOptions& options,
                    const PageSink& sink) {
  const std::vector<std::size_t> eligible =
      eligible_site_list(corpus, options.max_sites);

  origin::util::ThreadPool pool(options.threads);
  // Windowed batches keep memory bounded at corpus scale: only one window of
  // PageLoads is ever held, and the sink observes sites in index order.
  const std::size_t window = std::max<std::size_t>(pool.thread_count() * 8, 1);
  for (std::size_t begin = 0; begin < eligible.size(); begin += window) {
    const std::size_t count = std::min(window, eligible.size() - begin);
    const std::vector<web::PageLoad> loads =
        load_sites(corpus, options.loader,
                   std::span(eligible).subspan(begin, count), pool);
    for (std::size_t k = 0; k < count; ++k) {
      sink(corpus.sites()[eligible[begin + k]], loads[k]);
    }
  }
  return eligible.size();
}

}  // namespace origin::dataset
