// Benchmark driver binary: runs one workload and prints every metric by
// name with its unit, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer metrics of a traced run. Exit status is 0
// only when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

// Per-layer spans, in print order. Every traced run prints all of them;
// a workload that does not run a layer reports zero calls.
constexpr const char* kSpans[] = {
    "dataset.corpus_build",   "browser.page_load",
    "dataset.columns_append", "dataset.snapshot_encode",
    "dataset.shard_write",    "dataset.shard_read",
    "dataset.snapshot_decode", "web.har_fingerprint",
    "model.analyze",          "model.reconstruct",
    "model.analyze_batch",    "model.reconstruct_batch",
    "model.reconstruct_ip",   "model.cert_plan",
    "measure.passive_observe", "browser.wire_load",
    "h2.frame_parse",         "hpack.decode",
    "hpack.encode",           "h2.serialize",
};

struct Scalar {
  const char* name;
  const char* unit;
};
constexpr Scalar kScalars[] = {
    {"browser.page_load.busy_ms", "ms"},
    {"browser.page_load_util", "ratio"},
    {"dataset.snapshot_bytes_per_page", "B"},
    {"web.har_bytes_per_page", "B"},
    {"browser.wire_load.p50_ms", "ms"},
    {"browser.wire_load.p99_ms", "ms"},
    {"browser.coalesced_frac", "ratio"},
    {"browser.connections_per_page", "count"},
    {"browser.pages_ok_frac", "ratio"},
    {"netsim.bytes_per_request", "B"},
    {"netsim.tcp_handshakes_per_page", "count"},
    {"server.requests", "count"},
    {"server.origin_frames_sent", "count"},
    {"server.submit_failures", "count"},
    {"h2.frames_per_request", "count"},
    {"failures.cert_mismatch", "count"},
    {"failures.load_deadline", "count"},
    {"failures.parent_failed", "count"},
    {"failures.misdirected_421", "count"},
    {"failures.other", "count"},
    {"failed_frac", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

constexpr Scalar kEndToEnd[] = {
    {"pages_per_s", "1/s"},   {"requests_per_s", "1/s"},
    {"bytes_per_s", "B/s"},   {"served_frac", "ratio"},
    {"peak_rss_mib", "MiB"},  {"setup_s", "s"},
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<corpus_stream|model_replay|wire_small|wire_sized> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  RunOptions options;
  // At most one worker per hardware thread, and no more than four.
  options.threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || work_dir.empty() || !have_seed ||
      !(options.seconds > 0)) {
    return usage();
  }
  options.work_dir = work_dir;
  std::filesystem::create_directories(work_dir);

  Outcome out;
  if (workload == "corpus_stream") {
    out = run_corpus_stream(options);
  } else if (workload == "model_replay") {
    out = run_model_replay(options);
  } else if (workload == "wire_small") {
    out = run_wire(options, /*sized=*/false);
  } else if (workload == "wire_sized") {
    out = run_wire(options, /*sized=*/true);
  } else {
    return usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);

  std::vector<Metric> metrics;
  if (!options.trace) {
    out.end_to_end["peak_rss_mib"] = peak_rss_mib();
    for (const Scalar& m : kEndToEnd) {
      metrics.push_back({m.name, out.end_to_end[m.name], m.unit});
    }
  } else {
    for (const char* name : kSpans) {
      const SpanStat& span = out.trace[name];  // zeros when not run
      const std::string prefix = name;
      metrics.push_back({prefix + ".ms", span.ms(), "ms"});
      metrics.push_back({prefix + ".calls",
                         static_cast<double>(span.calls.load()), "count"});
      metrics.push_back(
          {prefix + ".allocs_per_call", span.allocs_per_call(), "count"});
    }
    for (const Scalar& m : kScalars) {
      metrics.push_back({m.name, out.layer[m.name], m.unit});
    }
  }

  std::printf("workload %s, seed %llu, %zu threads, %s\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.threads,
              options.trace ? "traced" : "untraced");
  for (const Metric& m : metrics) {
    out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& failure : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = out.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
