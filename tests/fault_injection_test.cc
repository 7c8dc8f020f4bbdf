// Fault-injection layer: deterministic schedules, graceful degradation in
// the wire client, and the CDN ORIGIN kill-switch (§6.7 replay).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "browser/wire_client.h"
#include "cdn/kill_switch.h"
#include "netsim/faults.h"
#include "h2/middleboxes.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/thread_pool.h"

namespace origin::browser {
namespace {

using dns::IpAddress;
using netsim::FaultConfig;
using netsim::FaultInjector;
using netsim::FaultKind;
using origin::util::SimTime;

server::Handler static_body(std::string body) {
  return [body = std::move(body)](std::string_view) {
    server::Response response;
    response.body = origin::util::from_string(body);
    return response;
  };
}

// Self-contained world: one CDN service covering www + static, one tracker
// service, matching Http2Servers on netsim, and an optional fault injector
// owned by the world (the network holds a non-owning pointer).
struct FaultWorld {
  netsim::Simulator sim;
  netsim::Network net{sim};
  Environment env;
  server::Http2Server cdn_server;
  server::Http2Server tracker_server;
  std::unique_ptr<FaultInjector> injector;

  explicit FaultWorld(bool origin_frames = true) {
    auto cert = *env.default_ca().issue(
        "www.site.com", {"www.site.com", "static.site.com"},
        SimTime::from_micros(0));
    Service cdn_service;
    cdn_service.name = "cdn";
    cdn_service.asn = 13335;
    cdn_service.provider = "ExampleCDN";
    cdn_service.addresses = {IpAddress::v4(0x0A000001)};
    cdn_service.served_hostnames = {"www.site.com", "static.site.com"};
    cdn_service.certificate = std::make_shared<tls::Certificate>(cert);
    env.add_service(std::move(cdn_service));

    server::ServerConfig config;
    if (origin_frames) {
      config.origin_set = {"https://www.site.com", "https://static.site.com"};
    }
    cdn_server = server::Http2Server(config);
    cdn_server.set_certificate(cert);
    cdn_server.add_vhost("www.site.com", static_body("<html>base</html>"));
    cdn_server.add_vhost("static.site.com", static_body("body{}"));
    cdn_server.listen(net, IpAddress::v4(0x0A000001));

    auto tracker_cert = *env.default_ca().issue("tracker.net", {"tracker.net"},
                                                SimTime::from_micros(0));
    Service tracker_service;
    tracker_service.name = "tracker";
    tracker_service.asn = 15169;
    tracker_service.provider = "TrackerCo";
    tracker_service.addresses = {IpAddress::v4(0x0B000001)};
    tracker_service.served_hostnames = {"tracker.net"};
    tracker_service.certificate =
        std::make_shared<tls::Certificate>(tracker_cert);
    env.add_service(std::move(tracker_service));

    tracker_server.set_certificate(tracker_cert);
    tracker_server.add_vhost("tracker.net", static_body("track();"));
    tracker_server.listen(net, IpAddress::v4(0x0B000001));
  }

  void set_faults(FaultConfig config) {
    injector = std::make_unique<FaultInjector>(config);
    net.set_fault_injector(injector.get());
  }

  static web::Webpage page() {
    web::Webpage page;
    page.tranco_rank = 7;
    page.base_hostname = "www.site.com";
    web::Resource base;
    base.hostname = "www.site.com";
    base.path = "/";
    base.mode = web::RequestMode::kNavigation;
    page.resources.push_back(base);
    web::Resource js;
    js.hostname = "static.site.com";
    js.path = "/app.js";
    js.parent = 0;
    js.discovery_cpu_ms = 1.0;
    page.resources.push_back(js);
    web::Resource tracker;
    tracker.hostname = "tracker.net";
    tracker.path = "/t.js";
    tracker.parent = 0;
    tracker.discovery_cpu_ms = 1.0;
    page.resources.push_back(tracker);
    return page;
  }

  WireLoadResult run(DegradationOptions degradation = {},
                     const std::string& policy = "origin-frame") {
    LoaderOptions options;
    options.policy = policy;
    WireClient client(env, net, options, degradation);
    WireLoadResult result;
    bool done = false;
    client.load(page(), [&](WireLoadResult r) {
      result = std::move(r);
      done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(done) << "load did not terminate";
    return result;
  }
};

DegradationOptions enabled_degradation() {
  DegradationOptions degradation;
  degradation.enabled = true;
  return degradation;
}

std::string first_error(const WireLoadResult& result) {
  return result.errors.empty() ? "(no errors)" : result.errors.front();
}

// --- FaultConfig parsing -------------------------------------------------

TEST(FaultInjection, ConfigParsesAndRoundTrips) {
  auto parsed = FaultConfig::parse(
      "seed=7,rst=0.25,connect_refused=0.1,stall_delay_ms=500,max_faults=3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_DOUBLE_EQ(parsed->rst, 0.25);
  EXPECT_DOUBLE_EQ(parsed->connect_refused, 0.1);
  EXPECT_EQ(parsed->stall_delay.as_millis(), 500.0);
  EXPECT_EQ(parsed->max_faults, 3u);

  auto reparsed = FaultConfig::parse(parsed->serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->serialize(), parsed->serialize());
}

TEST(FaultInjection, ConfigRejectsMalformedInput) {
  EXPECT_FALSE(FaultConfig::parse("rst=1.5").ok());       // out of range
  EXPECT_FALSE(FaultConfig::parse("rst=-0.1").ok());      // out of range
  EXPECT_FALSE(FaultConfig::parse("rst=nan").ok());       // NaN
  EXPECT_FALSE(FaultConfig::parse("bogus=0.1").ok());     // unknown key
  EXPECT_FALSE(FaultConfig::parse("rst").ok());           // no '='
  EXPECT_FALSE(FaultConfig::parse("=0.1").ok());          // empty key
  EXPECT_FALSE(FaultConfig::parse("rst=").ok());          // empty value
  EXPECT_FALSE(FaultConfig::parse("seed=twelve").ok());   // bad integer
  EXPECT_TRUE(FaultConfig::parse("").ok());               // empty = defaults
  EXPECT_TRUE(FaultConfig::parse(" rst=0.1 , stall=0.2 ,").ok());
}

TEST(FaultInjection, PlanIsAPureFunctionOfSeed) {
  FaultConfig config = FaultConfig::uniform(0.5, 42);
  FaultInjector a(config);
  FaultInjector b(config);
  for (std::uint64_t id = 1; id <= 64; ++id) {
    EXPECT_EQ(a.connect_fault(id), b.connect_fault(id));
    auto plan_a = a.stream_fault(id);
    auto plan_b = b.stream_fault(id);
    EXPECT_EQ(plan_a.kind, plan_b.kind);
    EXPECT_EQ(plan_a.to_server, plan_b.to_server);
    EXPECT_EQ(plan_a.event_index, plan_b.event_index);
    EXPECT_EQ(a.tls_fault(id), b.tls_fault(id));
  }
  // A different seed produces a different schedule somewhere in 64 ids.
  FaultConfig other = FaultConfig::uniform(0.5, 43);
  FaultInjector c(other);
  bool any_difference = false;
  for (std::uint64_t id = 1; id <= 64 && !any_difference; ++id) {
    any_difference = a.connect_fault(id) != c.connect_fault(id) ||
                     a.stream_fault(id).kind != c.stream_fault(id).kind;
  }
  EXPECT_TRUE(any_difference);
}

// --- Per-kind injection through the wire client --------------------------

TEST(FaultInjection, ConnectRefusedIsRetriedUnderDegradation) {
  FaultWorld world;
  FaultConfig config;
  config.connect_refused = 1.0;
  config.max_faults = 1;
  world.set_faults(config);
  auto result = world.run(enabled_degradation());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.har.success) << first_error(result);
  EXPECT_EQ(result.robustness.connect_failures, 1u);
  EXPECT_GE(result.robustness.retries, 1u);
  EXPECT_GT(result.robustness.backoff_micros, 0u);
  EXPECT_EQ(world.net.stats().injected_faults, 1u);
}

TEST(FaultInjection, ConnectBlackholeHitsTimeoutThenRetries) {
  FaultWorld world;
  FaultConfig config;
  config.connect_timeout = 1.0;
  config.max_faults = 1;
  world.set_faults(config);
  auto result = world.run(enabled_degradation());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.har.success) << first_error(result);
  EXPECT_EQ(result.robustness.connect_timeouts, 1u);
  EXPECT_GE(result.robustness.retries, 1u);
}

TEST(FaultInjection, TlsHandshakeFaultIsRetried) {
  FaultWorld world;
  FaultConfig config;
  config.tls_handshake = 1.0;
  config.max_faults = 1;
  world.set_faults(config);
  auto result = world.run(enabled_degradation());
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.har.success) << first_error(result);
  EXPECT_EQ(result.robustness.tls_failures, 1u);
  EXPECT_GE(result.robustness.retries, 1u);
}

TEST(FaultInjection, MidStreamRstIsRedispatched) {
  // rst=1: every connection's plan is an abrupt teardown pinned to an
  // early delivery. The degradation path re-dispatches and the load still
  // terminates; the injected teardown reason is recorded verbatim.
  FaultWorld world;
  FaultConfig config;
  config.rst = 1.0;
  world.set_faults(config);
  auto result = world.run(enabled_degradation());
  EXPECT_TRUE(result.complete);
  EXPECT_GE(world.net.stats().injected_faults, 1u);
  EXPECT_GE(result.robustness.connections_torn_down, 1u);
  bool saw_injected_reason = false;
  for (const auto& [reason, count] : world.net.stats().teardown_reasons) {
    if (reason.find("injected: rst") != std::string::npos && count > 0) {
      saw_injected_reason = true;
    }
  }
  EXPECT_TRUE(saw_injected_reason);
}

TEST(FaultInjection, DnsServfailFailsOverOrExhaustsRetries) {
  FaultWorld world;
  FaultConfig config;
  config.dns_servfail = 1.0;  // every upstream query fails
  world.set_faults(config);
  auto result = world.run(enabled_degradation());
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.har.success);
  EXPECT_GE(result.robustness.dns_failures, 1u);
  EXPECT_GE(result.robustness.retries, 1u);
}

TEST(FaultInjection, StalledDeliveryTripsRequestTimeout) {
  FaultWorld world;
  FaultConfig config;
  config.stall = 1.0;  // every connection's plan stalls an early delivery
  config.stall_delay = origin::util::Duration::seconds(30);
  world.set_faults(config);
  DegradationOptions degradation = enabled_degradation();
  degradation.request_timeout = origin::util::Duration::seconds(2);
  degradation.connect_timeout = origin::util::Duration::seconds(2);
  auto result = world.run(degradation);
  EXPECT_TRUE(result.complete);
  EXPECT_GE(world.net.stats().injected_faults, 1u);
  EXPECT_GE(result.robustness.request_timeouts +
                result.robustness.connect_timeouts +
                result.robustness.connections_torn_down,
            1u);
}

TEST(FaultInjection, StalledLoadHitsDeadlineWithoutDegradation) {
  // Degradation off: a SYN blackhole would hang the load forever. The
  // always-on deadline converts that into a terminal complete=false.
  FaultWorld world;
  FaultConfig config;
  config.connect_timeout = 1.0;  // every connect blackholes
  world.set_faults(config);
  DegradationOptions degradation;  // enabled = false
  degradation.load_deadline = origin::util::Duration::seconds(15);
  auto result = world.run(degradation);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.robustness.deadline_expirations, 1u);
  EXPECT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors.front().find("load deadline exceeded"),
            std::string::npos);
}

TEST(FaultInjection, EmptyPageStillFiresDoneAndDrains) {
  FaultWorld world;
  LoaderOptions options;
  options.policy = "origin-frame";
  WireClient client(world.env, world.net, options);
  web::Webpage empty;
  empty.base_hostname = "www.site.com";
  bool done = false;
  WireLoadResult result;
  client.load(empty, [&](WireLoadResult r) {
    result = std::move(r);
    done = true;
  });
  world.sim.run_until_idle();
  EXPECT_TRUE(done);
  EXPECT_TRUE(result.complete);
}

TEST(FaultInjection, DegradationDisabledMatchesLegacyFailureMode) {
  // Without degradation the injected refusal is a terminal resource
  // failure — the legacy behavior the §6.7 tests rely on.
  FaultWorld world;
  FaultConfig config;
  config.connect_refused = 1.0;
  config.max_faults = 1;
  world.set_faults(config);
  auto result = world.run(DegradationOptions{});
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.har.success);
  EXPECT_EQ(result.robustness.retries, 0u);
}

TEST(FaultInjection, EnvFaultMatrixAlwaysTerminates) {
  // scripts/check.sh sweeps ORIGIN_FAULT_RATE over {0, 0.05, 0.20}: at any
  // rate every load must reach a terminal outcome, and at rate 0 the loads
  // must all succeed.
  double rate = 0.05;
  std::uint64_t seed = 0xF417;
  if (const char* env_rate = std::getenv("ORIGIN_FAULT_RATE")) {
    rate = std::strtod(env_rate, nullptr);
  }
  if (const char* env_seed = std::getenv("ORIGIN_FAULT_SEED")) {
    seed = std::strtoull(env_seed, nullptr, 0);
  }
  int complete_loads = 0;
  int successful_loads = 0;
  const int kLoads = 12;
  for (int i = 0; i < kLoads; ++i) {
    FaultWorld world;
    world.set_faults(FaultConfig::uniform(rate, seed + static_cast<std::uint64_t>(i)));
    auto result = world.run(enabled_degradation());
    if (result.complete) ++complete_loads;
    if (result.har.success) ++successful_loads;
  }
  EXPECT_EQ(complete_loads, kLoads);
  if (rate == 0.0) {
    EXPECT_EQ(successful_loads, kLoads);
  }
}

// --- Determinism across thread counts ------------------------------------

std::string run_fault_batch(std::size_t threads) {
  // K independent per-load worlds, executed across the pool. Every decision
  // inside a world is a pure function of its seed, so the concatenated
  // RobustnessStats must be byte-equal at any thread count.
  constexpr std::size_t kLoads = 16;
  std::vector<std::string> serialized(kLoads);
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(kLoads, [&](std::size_t i) {
    FaultWorld world;
    world.set_faults(FaultConfig::uniform(0.2, 0x5EED + i));
    auto result = world.run(enabled_degradation());
    serialized[i] = result.robustness.serialize();
  });
  std::string all;
  for (std::size_t i = 0; i < kLoads; ++i) {
    all += "# load " + std::to_string(i) + "\n" + serialized[i];
  }
  return all;
}

TEST(FaultDeterminism, RobustnessStatsBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_fault_batch(1);
  const std::string parallel = run_fault_batch(8);
  EXPECT_EQ(serial, parallel);
  // And the schedule actually injected something at rate 0.2.
  EXPECT_NE(serial.find("retries="), std::string::npos);
}

TEST(FaultDeterminism, SameSeedSameSchedule) {
  FaultWorld a;
  a.set_faults(FaultConfig::uniform(0.3, 99));
  auto result_a = a.run(enabled_degradation());

  FaultWorld b;
  b.set_faults(FaultConfig::uniform(0.3, 99));
  auto result_b = b.run(enabled_degradation());

  EXPECT_EQ(result_a.robustness.serialize(), result_b.robustness.serialize());
  EXPECT_EQ(a.net.stats().injected_faults, b.net.stats().injected_faults);
}

// --- ORIGIN kill-switch ---------------------------------------------------

TEST(KillSwitch, DisablesAfterTeardownRateCrossesThreshold) {
  cdn::KillSwitchOptions options;
  options.window = 8;
  options.min_observations = 4;
  options.teardown_threshold = 0.5;
  cdn::OriginKillSwitch ks(options);

  EXPECT_TRUE(ks.should_send_origin("tag"));
  for (int i = 0; i < 3; ++i) ks.record_outcome("tag", true, true);
  EXPECT_FALSE(ks.disabled("tag"));  // below min_observations
  ks.record_outcome("tag", true, true);
  EXPECT_TRUE(ks.disabled("tag"));
  EXPECT_EQ(ks.disables(), 1u);
  EXPECT_FALSE(ks.should_send_origin("tag"));
  // Other tags are unaffected.
  EXPECT_TRUE(ks.should_send_origin("other"));
}

TEST(KillSwitch, NonOriginConnectionsDoNotEnterTheWindow) {
  cdn::KillSwitchOptions options;
  options.min_observations = 2;
  cdn::OriginKillSwitch ks(options);
  for (int i = 0; i < 10; ++i) ks.record_outcome("tag", false, true);
  EXPECT_FALSE(ks.disabled("tag"));
}

TEST(KillSwitch, ProbeReenablesAfterCleanOutcome) {
  cdn::KillSwitchOptions options;
  options.window = 4;
  options.min_observations = 2;
  options.teardown_threshold = 0.5;
  options.probe_after = 3;
  cdn::OriginKillSwitch ks(options);
  ks.record_outcome("tag", true, true);
  ks.record_outcome("tag", true, true);
  ASSERT_TRUE(ks.disabled("tag"));

  // Two suppressed queries, then the third goes out as a probe.
  EXPECT_FALSE(ks.should_send_origin("tag"));
  EXPECT_FALSE(ks.should_send_origin("tag"));
  EXPECT_TRUE(ks.should_send_origin("tag"));
  EXPECT_EQ(ks.probes(), 1u);
  // Probe torn down: stay dark.
  ks.record_outcome("tag", true, true);
  EXPECT_TRUE(ks.disabled("tag"));
  // Next probe survives: re-enabled.
  EXPECT_FALSE(ks.should_send_origin("tag"));
  EXPECT_FALSE(ks.should_send_origin("tag"));
  EXPECT_TRUE(ks.should_send_origin("tag"));
  ks.record_outcome("tag", true, false);
  EXPECT_FALSE(ks.disabled("tag"));
  EXPECT_EQ(ks.reenables(), 1u);
  EXPECT_TRUE(ks.should_send_origin("tag"));
}

TEST(KillSwitch, AbnormalCloseHeuristic) {
  EXPECT_TRUE(cdn::abnormal_close("middlebox teardown: strict-av-agent"));
  EXPECT_TRUE(cdn::abnormal_close("injected: rst (rst)"));
  EXPECT_TRUE(cdn::abnormal_close("h2 protocol error: bad frame"));
  EXPECT_FALSE(cdn::abnormal_close("load complete"));
  EXPECT_FALSE(cdn::abnormal_close("done"));
}

TEST(KillSwitch, SixSevenReplayDisablesOriginForAffectedTagOnly) {
  // §6.7 end-to-end: clients behind the buggy agent keep losing
  // ORIGIN-bearing connections. The kill-switch notices within its window,
  // stops advertising ORIGIN to that tag (their loads then succeed,
  // uncoalesced), leaves control clients coalescing, and re-enables via
  // probe once the vendor ships the fixed agent.
  FaultWorld world(/*origin_frames=*/true);
  cdn::KillSwitchOptions options;
  options.window = 8;
  options.min_observations = 2;
  options.teardown_threshold = 0.5;
  // A suppressed affected load opens two CDN connections (www + static,
  // uncoalesced), i.e. two gate queries; probe_after=4 keeps the probe out
  // of the first suppressed load and fires it during the next one.
  options.probe_after = 4;
  cdn::OriginKillSwitch ks(options);
  world.cdn_server.set_origin_gate([&ks](const std::string& tag) {
    return ks.should_send_origin(tag);
  });
  world.cdn_server.set_close_feedback([&ks](const std::string& tag,
                                            bool origin_sent,
                                            const std::string& reason) {
    ks.record_outcome(tag, origin_sent, cdn::abnormal_close(reason));
  });
  world.net.install_middlebox("affected", h2::strict_av_agent());

  auto run_tagged = [&world](const std::string& tag) {
    LoaderOptions options;
    options.policy = "origin-frame";
    options.network_tag = tag;
    WireClient client(world.env, world.net, options, DegradationOptions{});
    WireLoadResult result;
    client.load(FaultWorld::page(),
                [&](WireLoadResult r) { result = std::move(r); });
    world.sim.run_until_idle();
    return result;
  };

  // Phase 1: the incident. Affected loads lose their CDN connections until
  // the kill-switch trips; control loads keep coalescing throughout.
  for (int i = 0; i < 6 && !ks.disabled("affected"); ++i) {
    auto affected = run_tagged("affected");
    EXPECT_FALSE(affected.har.success);  // agent kills ORIGIN connections
    auto control = run_tagged("control");
    EXPECT_TRUE(control.har.success);
  }
  ASSERT_TRUE(ks.disabled("affected"));
  EXPECT_FALSE(ks.disabled("control"));
  EXPECT_GE(ks.disables(), 1u);

  // ORIGIN suppressed: the same hostile path is now survivable — the load
  // runs uncoalesced and the agent has nothing to trip on.
  auto suppressed = run_tagged("affected");
  EXPECT_TRUE(suppressed.har.success) << first_error(suppressed);
  EXPECT_GT(world.cdn_server.stats().origin_frames_suppressed, 0u);
  // Control clients still coalesce while the affected tag is dark.
  auto control = run_tagged("control");
  EXPECT_TRUE(control.har.success);

  // Phase 2: vendor fix. Probes re-test the path and re-enable ORIGIN.
  world.net.uninstall_middleboxes("affected");
  for (int i = 0; i < 8 && ks.disabled("affected"); ++i) {
    (void)run_tagged("affected");
  }
  EXPECT_FALSE(ks.disabled("affected"));
  EXPECT_GE(ks.reenables(), 1u);
  // And everyone coalesces again.
  auto after_fix = run_tagged("affected");
  EXPECT_TRUE(after_fix.har.success);
}

}  // namespace
}  // namespace origin::browser
