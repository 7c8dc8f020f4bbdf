// Shared helpers for the reproduction benches: flag parsing, corpus
// construction, headers, and the one publish path for every BENCH_*.json
// (see publish() below). Every bench accepts:
//   --sites N   corpus size (default 20000; the paper crawled 315,796)
//   --seed  S   corpus seed (default 42)
// Defaults reproduce the committed EXPERIMENTS.md numbers exactly.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "dataset/collector.h"
#include "dataset/generator.h"
#include "measure/reports.h"
#include "util/json.h"

namespace origin::bench {

// Peak resident set size of this process so far, in bytes (ru_maxrss is
// kilobytes on Linux). Monotonic over the process lifetime — order legs
// smallest-footprint-first when comparing phases within one run.
inline std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

struct Args {
  std::size_t sites = 20'000;
  std::uint64_t seed = 42;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
        args.sites = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        args.seed = std::strtoull(argv[++i], nullptr, 10);
      }
    }
    return args;
  }
};

inline dataset::Corpus make_corpus(const Args& args) {
  dataset::CorpusOptions options;
  options.site_count = args.sites;
  options.seed = args.seed;
  return dataset::Corpus(options);
}

// The Chrome-v88-equivalent collection configuration used for the §3
// dataset (measured vantage).
inline dataset::CollectOptions chrome_collect_options() {
  dataset::CollectOptions options;
  options.loader.policy = "chromium-ip";
  // Recursive resolution from the collection vantage averaged ~25ms.
  options.loader.resolver.recursive_base = origin::util::Duration::millis(55);
  return options;
}

inline void print_header(const char* experiment, const char* paper_ref,
                         const Args& args) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("corpus: %zu sites, seed %llu (paper: 315,796 sites)\n\n",
              args.sites, static_cast<unsigned long long>(args.seed));
}

// --- files, knobs, timing --------------------------------------------------

inline bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

inline util::Result<util::Json> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::make_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return util::Json::parse(buffer.str());
}

inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

inline std::string env_string(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return (value == nullptr || *value == '\0') ? fallback : value;
}

// --- publish: envelope, regression gates, one refresh rule ----------------

// One regression gate against the committed BENCH_<name>.json. `metric`
// pulls the gated number out of a document and runs on the fresh and the
// committed document alike, so the two sides cannot drift apart. A
// committed document without the metric is a first run for it (no gate);
// a present value of any sign is a baseline.
struct Gate {
  enum class Kind {
    kMaxFallPct,     // fresh >= committed * (1 - bound / 100)
    kMaxRisePct,     // fresh <= committed * (1 + bound / 100)
    kMaxRisePoints,  // fresh <= committed + bound
  };
  std::string name;
  std::function<util::Json(const util::Json&)> metric;
  Kind kind = Kind::kMaxFallPct;
  double bound = 0;

  bool holds(double fresh, double committed) const {
    switch (kind) {
      case Kind::kMaxFallPct:
        return fresh >= committed * (1.0 - bound / 100.0);
      case Kind::kMaxRisePct:
        return fresh <= committed * (1.0 + bound / 100.0);
      case Kind::kMaxRisePoints:
        return fresh <= committed + bound;
    }
    return false;
  }
};

// The identity every BENCH_*.json carries: `bench`, `seed` and, for the
// benches that take --sites, `sites`.
struct Run {
  std::string name;
  std::uint64_t seed = 0;
  std::optional<std::uint64_t> sites;
};

// Directory holding the committed baselines: the repo root for every bench
// built by bench/CMakeLists.txt, empty (publish without gating) otherwise.
inline std::string repo_root() {
#ifdef ORIGIN_REPO_ROOT
  return ORIGIN_REPO_ROOT;
#else
  return {};
#endif
}

// True when both paths resolve to one file (e.g. a bench run from the
// repo root); an unresolvable or empty path is never the same file.
inline bool same_file(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) return false;
  std::error_code ec_a;
  std::error_code ec_b;
  const auto canonical_a = std::filesystem::weakly_canonical(a, ec_a);
  const auto canonical_b = std::filesystem::weakly_canonical(b, ec_b);
  return !ec_a && !ec_b && canonical_a == canonical_b;
}

// Stamps the envelope (`bench`, `seed`, `sites`, `peak_rss_bytes`, `nproc`)
// on `doc`, writes BENCH_<name>.json to the working directory and, when
// `committed_dir` is set, applies every gate against the committed copy
// there. The committed copy is refreshed by one rule: only when the bench's
// own checks passed (`checks_ok`), every gate passed, and this run's
// `sites` is at least the committed `sites` (missing counts as 0) — so a
// CI-sized run gates against a larger reference run but never replaces it.
// Returns true when the checks and every gate passed and every write
// succeeded; a bench exits non-zero otherwise.
inline bool publish(const Run& run, util::Json::Object doc, bool checks_ok,
                    const std::vector<Gate>& gates,
                    const std::string& committed_dir = repo_root()) {
  doc["bench"] = run.name;
  doc["seed"] = run.seed;
  if (run.sites) doc["sites"] = *run.sites;
  doc["peak_rss_bytes"] = peak_rss_bytes();
  doc["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  const util::Json fresh(std::move(doc));
  const std::string rendered = fresh.dump(2) + "\n";
  const std::string file = "BENCH_" + run.name + ".json";
  const std::string committed_path =
      committed_dir.empty() ? "" : committed_dir + "/" + file;

  // Gate before any write: the working directory may be the committed one.
  bool ok = checks_ok;
  double committed_sites = 0;
  if (!committed_path.empty()) {
    if (auto committed = read_json(committed_path); committed.ok()) {
      committed_sites = (*committed)["sites"].double_or(0.0);
      for (const Gate& gate : gates) {
        const util::Json before = gate.metric(*committed);
        if (!before.is_number()) continue;
        const util::Json after = gate.metric(fresh);
        if (after.is_number() &&
            gate.holds(after.as_double(), before.as_double())) {
          continue;
        }
        std::fprintf(stderr,
                     "FAIL: %s regressed vs the committed baseline (%g -> "
                     "%s; bound %g%s)\n",
                     gate.name.c_str(), before.as_double(),
                     after.dump().c_str(), gate.bound,
                     gate.kind == Gate::Kind::kMaxRisePoints ? " points"
                                                             : "%");
        ok = false;
      }
    }
  }

  if (!same_file(file, committed_path)) {
    if (!write_file(file, rendered)) {
      std::fprintf(stderr, "cannot write %s\n", file.c_str());
      return false;
    }
    std::printf("wrote %s\n", file.c_str());
  }
  if (committed_path.empty()) return ok;

  if (!ok) {
    std::fprintf(stderr, "leaving %s untouched: a check or gate failed\n",
                 committed_path.c_str());
    return false;
  }
  const double sites = fresh["sites"].double_or(0.0);
  if (sites < committed_sites) {
    std::printf("leaving %s untouched: this run covered %.0f sites, the "
                "committed one %.0f\n",
                committed_path.c_str(), sites, committed_sites);
    return true;
  }
  if (!write_file(committed_path, rendered)) {
    std::fprintf(stderr, "cannot write %s\n", committed_path.c_str());
    return false;
  }
  std::printf("wrote %s\n", committed_path.c_str());
  return true;
}

}  // namespace origin::bench
