// wire_small / wire_sized: corpus pages loaded by browser::WireClient
// (origin-frame policy) over netsim against one server::Http2Server per
// browser::Service the page touches, each advertising its ORIGIN set — the
// §5.3 best-case coalesced path over real h2 frames, HPACK and flow control.
//
// A world is one page plus its servers on a private Simulator/Network.
// Workers run one world to completion, then take the next (closed batch).
// The traced run installs a pass-through netsim::Middlebox that copies each
// connection's bytes, then replays them per connection and direction
// through h2::FrameParser, hpack::Decoder/Encoder and h2::serialize_frame
// to time those layers from outside.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "browser/wire_client.h"
#include "dataset/collector.h"
#include "h2/frame.h"
#include "hpack/hpack.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "web/har_json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace origin;

// The sample: 2,400 seed-drawn pages out of a corpus large enough to offer
// them. One pass over the sample takes ~1.5 s on 4 threads.
constexpr std::size_t kSites = 4'000;
constexpr std::size_t kPages = 2'400;
// wire_small's fixed body: small enough that per-request work dominates.
constexpr std::size_t kSmallBody = 512;
// Worlds replayed at 1 and N threads, and with capture on and off.
constexpr std::size_t kCheckWorlds = 48;
// Timed in six blocks of 400 worlds (~0.3 s each on 4 threads).
constexpr std::size_t kBlocks = 6;

// Failure reasons, by the WireClient error text they start with.
enum Reason { kCertMismatch, kLoadDeadline, kParentFailed, kMisdirected, kOther,
              kReasonCount };
constexpr std::array<const char*, kReasonCount> kReasonNames = {
    "cert_mismatch", "load_deadline", "parent_failed", "misdirected_421",
    "other"};

Reason classify(std::string_view error) {
  if (error.starts_with("certificate validation failed")) return kCertMismatch;
  if (error.starts_with("load deadline exceeded")) return kLoadDeadline;
  if (error.starts_with("parent failed")) return kParentFailed;
  if (error.starts_with("421 on dedicated connection")) return kMisdirected;
  return kOther;
}

// One service's server in a world.
struct ServerSpec {
  std::size_t service = 0;  // index into Environment::services()
  // Hosts of this page the service serves, with each path's body size.
  std::map<std::string, std::map<std::string, std::size_t, std::less<>>>
      hosts;
  std::vector<std::string> origin_set;  // "https://<host>" per host
};

struct WorldSpec {
  std::size_t site = 0;
  web::Webpage page;
  std::vector<ServerSpec> servers;  // first-use order
};

// Counts of one world; equal worlds give equal results at any thread count.
struct WorldResult {
  std::uint64_t attempted = 0;  // requests (page resources)
  std::uint64_t failed = 0;
  std::array<std::uint64_t, kReasonCount> reasons{};
  std::uint64_t coalesced = 0;
  std::uint64_t connections = 0;
  std::uint64_t tcp_handshakes = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t responses_200 = 0;
  std::uint64_t origin_frames = 0;
  std::uint64_t submit_failures = 0;
  std::uint64_t page_ok = 0;
  std::uint64_t frames = 0;  // traced runs only
  // Check runs only: FNV of the HAR JSON and of the servers' merged
  // Stats::serialize() ledger.
  std::uint64_t har_digest = 0;
  std::uint64_t ledger_digest = 0;

  bool operator==(const WorldResult&) const = default;

  void add(const WorldResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (int r = 0; r < kReasonCount; ++r) reasons[r] += o.reasons[r];
    coalesced += o.coalesced;
    connections += o.connections;
    tcp_handshakes += o.tcp_handshakes;
    net_bytes += o.net_bytes;
    server_requests += o.server_requests;
    responses_200 += o.responses_200;
    origin_frames += o.origin_frames;
    submit_failures += o.submit_failures;
    page_ok += o.page_ok;
    frames += o.frames;
  }
  std::uint64_t served() const { return attempted - failed; }
};

// Pass-through middlebox: copies every delivery, per connection and
// direction, and forwards it untouched.
class CaptureMiddlebox : public netsim::Middlebox {
 public:
  Verdict inspect(std::uint64_t connection_id,
                  std::span<const std::uint8_t> bytes,
                  bool to_server) override {
    streams_[{connection_id, to_server}].emplace_back(bytes.begin(),
                                                      bytes.end());
    return Verdict::kForward;
  }
  std::string name() const override { return "capture"; }

  const std::map<std::pair<std::uint64_t, bool>,
                 std::vector<util::Bytes>>& streams() const {
    return streams_;
  }

 private:
  std::map<std::pair<std::uint64_t, bool>, std::vector<util::Bytes>> streams_;
};

struct ReplaySpans {
  SpanStat* parse = nullptr;
  SpanStat* decode = nullptr;
  SpanStat* encode = nullptr;
  SpanStat* serialize = nullptr;
};

// Replays one captured byte stream through the h2 and HPACK codecs.
// Returns the frame count, or an error when the bytes do not parse, a
// header block does not decode, or re-serializing the frames does not give
// the captured bytes back.
util::Result<std::uint64_t> replay_stream(
    const std::vector<util::Bytes>& chunks, bool to_server,
    const ReplaySpans& spans) {
  h2::FrameParser parser;
  std::vector<h2::Frame> frames;
  std::size_t skip = to_server ? h2::kClientPreface.size() : 0;
  std::size_t wire_bytes = 0;
  for (const util::Bytes& chunk : chunks) {
    std::span<const std::uint8_t> bytes(chunk);
    const std::size_t skipped = std::min(skip, bytes.size());
    bytes = bytes.subspan(skipped);
    skip -= skipped;
    wire_bytes += bytes.size();
    Span span(spans.parse);
    auto parsed = parser.feed(bytes);
    if (!parsed.ok()) return parsed.error();
    for (h2::Frame& frame : parsed.value()) frames.push_back(std::move(frame));
  }
  if (parser.buffered_bytes() != 0) {
    return util::make_error("wire replay: trailing partial frame");
  }

  // Header blocks: HEADERS plus any CONTINUATION fragments.
  std::vector<util::Bytes> blocks;
  util::Bytes pending;
  for (const h2::Frame& frame : frames) {
    if (const auto* headers = std::get_if<h2::HeadersFrame>(&frame)) {
      pending = headers->header_block;
      if (headers->end_headers) blocks.push_back(std::move(pending));
    } else if (const auto* cont = std::get_if<h2::ContinuationFrame>(&frame)) {
      pending.insert(pending.end(), cont->header_block.begin(),
                     cont->header_block.end());
      if (cont->end_headers) blocks.push_back(std::move(pending));
    }
  }
  hpack::Decoder decoder;
  std::vector<hpack::HeaderList> lists;
  for (const util::Bytes& block : blocks) {
    Span span(spans.decode);
    auto decoded = decoder.decode(block);
    if (!decoded.ok()) return decoded.error();
    lists.push_back(std::move(decoded).value());
  }
  hpack::Encoder encoder;
  for (const hpack::HeaderList& list : lists) {
    Span span(spans.encode);
    const util::Bytes block = encoder.encode(list);
    if (block.empty() && !list.empty()) {
      return util::make_error("wire replay: empty header block");
    }
  }
  std::size_t serialized = 0;
  for (const h2::Frame& frame : frames) {
    Span span(spans.serialize);
    serialized += h2::serialize_frame(frame).size();
  }
  if (serialized != wire_bytes) {
    return util::make_error("wire replay: re-serialized frames differ in "
                            "length from the captured bytes");
  }
  return static_cast<std::uint64_t>(frames.size());
}

struct WorldRunner {
  browser::Environment& env;
  bool sized;

  server::Handler handler(
      const std::map<std::string, std::size_t, std::less<>>& paths) const {
    if (!sized) {
      return [](std::string_view) {
        server::Response response;
        response.body.assign(kSmallBody, 'x');
        return response;
      };
    }
    return [&paths](std::string_view path) {
      server::Response response;
      auto it = paths.find(path);
      if (it == paths.end()) {
        response.status = 404;
        return response;
      }
      response.body.assign(it->second, 'x');
      return response;
    };
  }

  // Builds the world, loads the page, runs the simulator until idle.
  // `capture` non-null: time the load as `load_span`, then replay the
  // captured bytes through the codec spans. `digests`: fill
  // har_digest/ledger_digest.
  WorldResult run(const WorldSpec& spec, const ReplaySpans* capture,
                  SpanStat* load_span, double* load_ms, bool digests,
                  std::vector<std::string>& errors) const {
    netsim::Simulator sim;
    netsim::Network net(sim);
    std::shared_ptr<CaptureMiddlebox> tap;
    if (capture != nullptr) {
      tap = std::make_shared<CaptureMiddlebox>();
      net.install_middlebox("", tap);
    }
    std::vector<std::unique_ptr<server::Http2Server>> servers;
    std::vector<std::pair<dns::IpAddress, server::Http2Server*>> bound;
    for (const ServerSpec& s : spec.servers) {
      const browser::Service& service = env.services()[s.service];
      server::ServerConfig config;
      config.origin_set = s.origin_set;
      servers.push_back(std::make_unique<server::Http2Server>(config));
      server::Http2Server* own = servers.back().get();
      std::vector<server::Http2Server*> targets = {own};
      for (const dns::IpAddress& address : service.addresses) {
        auto it = std::find_if(
            bound.begin(), bound.end(),
            [&](const auto& b) { return b.first == address; });
        if (it == bound.end()) {
          own->listen(net, address);
          bound.emplace_back(address, own);
        } else if (std::find(targets.begin(), targets.end(), it->second) ==
                   targets.end()) {
          // An address shared with an earlier service (one provider's
          // edge): that server also serves this service's hosts.
          targets.push_back(it->second);
        }
      }
      for (server::Http2Server* target : targets) {
        target->set_certificate(*service.certificate);
        for (const auto& [host, paths] : s.hosts) {
          target->add_vhost(host, handler(paths));
        }
      }
    }

    browser::LoaderOptions base;
    base.policy = "origin-frame";
    browser::WireClient client(
        env, net, dataset::loader_options_for_site(base, spec.site));
    browser::WireLoadResult load;
    bool done = false;
    {
      Span span(load_span);
      client.load(spec.page, [&](browser::WireLoadResult result) {
        load = std::move(result);
        done = true;
      });
      sim.run_until_idle();
      const std::uint64_t ns = span.stop();
      if (load_ms != nullptr) *load_ms = static_cast<double>(ns) / 1e6;
    }

    WorldResult r;
    r.attempted = spec.page.resources.size();
    r.failed = load.errors.size();
    for (const std::string& error : load.errors) ++r.reasons[classify(error)];
    r.coalesced = load.coalesced_requests;
    r.connections = load.connections_opened;
    r.tcp_handshakes = net.stats().tcp_handshakes;
    r.net_bytes = net.stats().bytes_sent;
    r.page_ok = done && load.complete && load.har.success ? 1 : 0;
    server::Http2Server::Stats ledger;
    for (const auto& server : servers) ledger.merge(server->stats());
    r.server_requests = ledger.requests;
    r.responses_200 = ledger.responses_200;
    r.origin_frames = ledger.origin_frames_sent;
    r.submit_failures = ledger.submit_failures;
    if (!done) errors.push_back("a wire load never finished");
    if (digests) {
      r.har_digest = util::fnv1a64(web::to_har_string(load.har));
      r.ledger_digest = util::fnv1a64(ledger.serialize());
    }
    if (tap != nullptr) {
      for (const auto& [key, chunks] : tap->streams()) {
        auto frames = replay_stream(chunks, key.second, *capture);
        if (!frames.ok()) {
          errors.push_back(frames.error().message);
          continue;
        }
        r.frames += frames.value();
      }
    }
    return r;
  }
};

// Draws the sample and precomputes each world's servers: the services the
// page touches in first-use order, the hosts each serves for this page
// and, for wire_sized, every path's Resource::size_bytes.
std::vector<WorldSpec> build_worlds(dataset::Corpus& corpus,
                                    std::uint64_t seed) {
  std::vector<std::size_t> sites = eligible_sites(corpus);
  util::Rng rng(util::fnv1a64_mix(seed, 0x5a3b1e));
  const std::size_t n = std::min(kPages, sites.size());
  for (std::size_t i = 0; i < n; ++i) {  // partial Fisher-Yates
    std::swap(sites[i], sites[i + rng.uniform(sites.size() - i)]);
  }
  const browser::Environment& env = corpus.env();
  std::vector<WorldSpec> worlds(n);
  for (std::size_t k = 0; k < n; ++k) {
    WorldSpec& world = worlds[k];
    world.site = sites[k];
    world.page = corpus.page_for_site(world.site);
    std::map<std::size_t, std::size_t> server_of;  // service -> servers[]
    for (const web::Resource& r : world.page.resources) {
      const std::size_t service = env.service_index(r.hostname);
      if (service == browser::Environment::kNoService ||
          env.services()[service].certificate == nullptr) {
        continue;  // the client fails these requests itself
      }
      auto [it, inserted] = server_of.emplace(service, world.servers.size());
      if (inserted) {
        world.servers.emplace_back();
        world.servers.back().service = service;
      }
      ServerSpec& server = world.servers[it->second];
      auto& paths = server.hosts[r.hostname];
      if (paths.empty()) server.origin_set.push_back("https://" + r.hostname);
      paths[r.path] = r.size_bytes;
    }
  }
  return worlds;
}

// Value at quantile q (0..1) of `values`, nearest rank.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

WorldResult total(const std::vector<WorldResult>& results) {
  WorldResult sum;
  for (const WorldResult& r : results) sum.add(r);
  return sum;
}

}  // namespace

Outcome run_wire(const RunOptions& options, bool sized) {
  Outcome out;
  std::vector<double> setup_samples;
  std::unique_ptr<dataset::Corpus> corpus;
  std::vector<WorldSpec> worlds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    worlds.clear();
    corpus.reset();
    double seconds = 0;
    corpus = build_corpus(kSites, options.seed, options.threads,
                          options.trace ? &out.trace : nullptr, &seconds);
    const auto start = Clock::now();
    worlds = build_worlds(*corpus, options.seed);
    setup_samples.push_back(seconds + seconds_since(start));
  }
  const WorldRunner runner{corpus->env(), sized};
  util::ThreadPool pool(options.threads);
  std::vector<std::vector<std::string>> errors(worlds.size());

  // One closed-batch pass over worlds [first, first + count): each world
  // run to completion by one worker. A non-null `capture` also times and
  // replays each world.
  auto pass = [&](util::ThreadPool& on, std::size_t first, std::size_t count,
                  const ReplaySpans* capture, SpanStat* load_span,
                  std::vector<double>* load_ms, bool digests) {
    std::vector<WorldResult> results(count);
    on.parallel_for_index(count, [&](std::size_t k) {
      const std::size_t w = first + k;
      results[k] = runner.run(worlds[w], capture, load_span,
                              load_ms != nullptr ? &(*load_ms)[w] : nullptr,
                              digests, errors[w]);
    });
    return results;
  };

  // Untraced pass: every world's reference counts (and, traced, the
  // overhead base).
  const auto untraced_start = Clock::now();
  const std::vector<WorldResult> reference =
      pass(pool, 0, worlds.size(), nullptr, nullptr, nullptr, false);
  const double untraced = seconds_since(untraced_start);
  const WorldResult reference_sum = total(reference);
  if (!options.trace) {
    auto block_first = [&](std::size_t b) {
      return worlds.size() * b / kBlocks;
    };
    const std::vector<double> seconds = median_block_seconds(
        kBlocks, options.seconds, [&](std::size_t b) {
          const std::size_t first = block_first(b);
          const std::size_t count = block_first(b + 1) - first;
          const std::vector<WorldResult> results =
              pass(pool, first, count, nullptr, nullptr, nullptr, false);
          out.check(std::equal(results.begin(), results.end(),
                               reference.begin() + first),
                    "repeated passes over one world block differ");
          return out.check_failures.empty();
        });
    double total_s = 0;
    for (double s : seconds) total_s += s;
    if (total_s > 0) {
      out.end_to_end["pages_per_s"] =
          static_cast<double>(worlds.size()) / total_s;
      out.end_to_end["requests_per_s"] =
          static_cast<double>(reference_sum.served()) / total_s;
      out.end_to_end["bytes_per_s"] =
          static_cast<double>(reference_sum.net_bytes) / total_s;
    }
    out.end_to_end["served_frac"] =
        static_cast<double>(reference_sum.served()) /
        static_cast<double>(reference_sum.attempted);
    out.end_to_end["setup_s"] = median(setup_samples);
    out.attempted = reference_sum.attempted;
    out.failed = reference_sum.failed;
  } else {
    // Traced pass: each world's load is one browser.wire_load span; its
    // captured bytes then replay through the codec spans on the same
    // worker, so no codec span overlaps the load it re-executes.
    SpanStat& load_span = out.trace["browser.wire_load"];
    const ReplaySpans spans{&out.trace["h2.frame_parse"],
                            &out.trace["hpack.decode"],
                            &out.trace["hpack.encode"],
                            &out.trace["h2.serialize"]};
    std::vector<double> load_ms(worlds.size(), 0.0);
    arm_alloc_counter(true);
    const auto start = Clock::now();
    const std::vector<WorldResult> traced =
        pass(pool, 0, worlds.size(), &spans, &load_span, &load_ms, false);
    const double traced_wall = seconds_since(start);
    arm_alloc_counter(false);

    for (std::size_t k = 0; k < worlds.size(); ++k) {
      WorldResult counts = traced[k];
      counts.frames = 0;
      out.check(counts == reference[k], "capture changed a world's counts");
    }
    const WorldResult sum = total(traced);
    out.attempted = sum.attempted;
    out.failed = sum.failed;
    const double pages = static_cast<double>(worlds.size());
    const double requests = static_cast<double>(sum.attempted);
    out.layer["browser.wire_load.p50_ms"] = quantile(load_ms, 0.50);
    out.layer["browser.wire_load.p99_ms"] = quantile(load_ms, 0.99);
    out.layer["browser.coalesced_frac"] =
        static_cast<double>(sum.coalesced) / requests;
    out.layer["browser.connections_per_page"] =
        static_cast<double>(sum.connections) / pages;
    out.layer["browser.pages_ok_frac"] =
        static_cast<double>(sum.page_ok) / pages;
    out.layer["netsim.bytes_per_request"] =
        static_cast<double>(sum.net_bytes) / requests;
    out.layer["netsim.tcp_handshakes_per_page"] =
        static_cast<double>(sum.tcp_handshakes) / pages;
    out.layer["server.requests"] = static_cast<double>(sum.server_requests);
    out.layer["server.origin_frames_sent"] =
        static_cast<double>(sum.origin_frames);
    out.layer["server.submit_failures"] =
        static_cast<double>(sum.submit_failures);
    out.layer["h2.frames_per_request"] =
        static_cast<double>(sum.frames) / requests;
    for (int r = 0; r < kReasonCount; ++r) {
      out.layer[std::string("failures.") + kReasonNames[r]] =
          static_cast<double>(sum.reasons[r]);
    }
    out.layer["failed_frac"] = static_cast<double>(sum.failed) / requests;
    double stage_ns = 0;
    for (const char* stage : {"browser.wire_load", "h2.frame_parse",
                              "hpack.decode", "hpack.encode", "h2.serialize"}) {
      stage_ns += static_cast<double>(out.trace[stage].ns.load());
    }
    // Stages run on every worker at once: compare with wall x workers.
    out.layer["trace.coverage"] =
        stage_ns / 1e9 /
        (traced_wall * static_cast<double>(options.threads));
    out.layer["trace.overhead_pct"] = (traced_wall / untraced - 1.0) * 100.0;
  }

  // Every request is accounted for: served + failed by reason = attempted,
  // and no world served more responses than its servers answered 200.
  for (const WorldResult& r : reference) {
    std::uint64_t by_reason = 0;
    for (std::uint64_t n : r.reasons) by_reason += n;
    out.check(r.failed <= r.attempted && by_reason == r.failed &&
                  r.served() + by_reason == r.attempted &&
                  r.served() <= r.responses_200,
              "wire requests not fully accounted for");
  }
  // HAR digests and server ledgers: identical at 1 and N threads, and
  // with the capture middlebox on and off.
  {
    const std::size_t k = std::min(kCheckWorlds, worlds.size());
    util::ThreadPool serial(1);
    const auto one = pass(serial, 0, k, nullptr, nullptr, nullptr, true);
    const auto many = pass(pool, 0, k, nullptr, nullptr, nullptr, true);
    out.check(one == many,
              "wire HAR digests or server ledgers differ between 1 and " +
                  std::to_string(options.threads) + " threads");
    if (options.trace) {
      const ReplaySpans untimed;
      auto captured = pass(pool, 0, k, &untimed, nullptr, nullptr, true);
      for (WorldResult& r : captured) r.frames = 0;
      out.check(captured == many,
                "wire HAR digests or server ledgers differ with capture on");
    }
    for (std::size_t i = 0; i < k; ++i) {
      WorldResult counts = one[i];
      counts.har_digest = 0;
      counts.ledger_digest = 0;
      out.check(counts == reference[i],
                "check-run world counts differ from the measured pass");
    }
  }
  for (const auto& world_errors : errors) {
    for (const std::string& e : world_errors) out.check(false, e);
  }
  return out;
}

}  // namespace perfbench
