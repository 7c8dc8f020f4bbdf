#include <algorithm>

#include "workloads.h"

namespace perfbench {

using namespace origin;

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

std::vector<double> median_block_seconds(
    std::size_t blocks, double seconds,
    const std::function<bool(std::size_t block)>& run) {
  constexpr std::size_t kMinRounds = 2;
  std::vector<std::vector<double>> samples(blocks);
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round < kMinRounds || seconds_since(start) < seconds; ++round) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto block_start = Clock::now();
      const bool ok = run(b);
      samples[b].push_back(seconds_since(block_start));
      if (!ok) return {};
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& s : samples) medians.push_back(median(s));
  return medians;
}

std::unique_ptr<dataset::Corpus> build_corpus(std::size_t sites,
                                              std::uint64_t seed,
                                              std::size_t threads,
                                              Trace* trace, double* seconds) {
  dataset::CorpusOptions options;
  options.site_count = sites;
  options.seed = seed;
  options.threads = threads;
  arm_alloc_counter(trace != nullptr);
  const auto start = Clock::now();
  Span span(trace != nullptr ? &(*trace)["dataset.corpus_build"] : nullptr,
            /*parallel=*/true);
  auto corpus = std::make_unique<dataset::Corpus>(options);
  span.stop();
  *seconds += seconds_since(start);
  arm_alloc_counter(false);
  return corpus;
}

std::vector<std::size_t> eligible_sites(const dataset::Corpus& corpus) {
  std::vector<std::size_t> sites;
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    if (corpus.sites()[i].crawl_succeeded) sites.push_back(i);
  }
  return sites;
}

std::vector<std::uint64_t> page_bytes(const dataset::Corpus& corpus,
                                      const std::vector<std::size_t>& sites,
                                      util::ThreadPool& pool) {
  std::vector<std::uint64_t> bytes(sites.size(), 0);
  pool.parallel_for_index(sites.size(), [&](std::size_t k) {
    for (const web::Resource& r : corpus.page_for_site(sites[k]).resources) {
      bytes[k] += r.size_bytes;
    }
  });
  return bytes;
}

}  // namespace perfbench
