// The benchmark's four workloads (see perfbench/README.md for what each
// one runs and why).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 4;
  // Scratch directory inside the checkout (spill files live here).
  std::string work_dir;
};

// What one run of a workload measured and checked.
struct Outcome {
  std::vector<std::string> check_failures;  // empty = outputs correct
  // Operations the workload counts (pages, or requests for the wire
  // workloads) and how many of them failed, each counted once: timed
  // repeats re-run the same operations and are checked equal to the first
  // run, so both counts depend on the seed alone, not on the run length.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Untraced runs: the end-to-end figures other than peak_rss_mib.
  std::map<std::string, double> end_to_end;
  // Traced runs: span totals plus scalar per-layer figures.
  Trace trace;
  std::map<std::string, double> layer;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

double median(std::vector<double> samples);

// Runs block 0..blocks-1 round-robin until `seconds` have passed and every
// block ran at least twice, and returns each block's median duration in
// seconds. Interleaving spreads slow phases of a shared host over all
// blocks; the per-block median drops the slow samples. `run` returns false
// to stop early (a failed check).
std::vector<double> median_block_seconds(
    std::size_t blocks, double seconds,
    const std::function<bool(std::size_t block)>& run);

// Builds one corpus (set-up users pay on every run) and adds its build
// time to *seconds; traced runs record it as a dataset.corpus_build span.
std::unique_ptr<origin::dataset::Corpus> build_corpus(std::size_t sites,
                                                      std::uint64_t seed,
                                                      std::size_t threads,
                                                      Trace* trace,
                                                      double* seconds);

// Indices of the sites whose crawl succeeded, in site order: the pages
// every corpus path loads.
std::vector<std::size_t> eligible_sites(const origin::dataset::Corpus& corpus);

// Summed Resource::size_bytes of each site's page.
std::vector<std::uint64_t> page_bytes(const origin::dataset::Corpus& corpus,
                                      const std::vector<std::size_t>& sites,
                                      origin::util::ThreadPool& pool);

Outcome run_corpus_stream(const RunOptions& options);
Outcome run_model_replay(const RunOptions& options);
// `sized`: response bodies take Resource::size_bytes instead of a fixed
// small size.
Outcome run_wire(const RunOptions& options, bool sized);

}  // namespace perfbench
