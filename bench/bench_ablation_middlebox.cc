// Ablation (§6.7): the non-compliant middlebox incident. Runs identical
// wire-level page loads through (a) a clean path, (b) a compliant passive
// inspector, (c) the buggy agent that tears down on unknown frame types,
// and (d) the agent after the vendor's fix — with and without server-side
// ORIGIN frames.
#include <cstdio>
#include <memory>

#include "browser/environment.h"
#include "browser/wire_client.h"
#include "h2/middleboxes.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/table.h"

namespace {

using namespace origin;
using dns::IpAddress;

struct Outcome {
  bool page_ok = false;
  std::size_t torn_down = 0;
  std::size_t coalesced = 0;
};

Outcome run_case(bool server_origin, int middlebox_kind) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  browser::Environment env;

  auto cert = *env.default_ca().issue(
      "www.shop.example", {"www.shop.example", "static.shop.example"},
      origin::util::SimTime::from_micros(0));
  browser::Service service;
  service.name = "shop";
  service.asn = 13335;
  service.provider = "ExampleCDN";
  service.addresses = {IpAddress::v4(0x0A000001)};
  service.served_hostnames = {"www.shop.example", "static.shop.example"};
  service.certificate = std::make_shared<tls::Certificate>(cert);
  env.add_service(std::move(service));

  server::ServerConfig config;
  if (server_origin) {
    config.origin_set = {"https://www.shop.example",
                         "https://static.shop.example"};
  }
  server::Http2Server server(config);
  server.set_certificate(cert);
  server.add_vhost("www.shop.example", [](std::string_view) {
    server::Response r;
    r.body = origin::util::from_string("<html>shop</html>");
    return r;
  });
  server.add_vhost("static.shop.example", [](std::string_view) {
    server::Response r;
    r.content_type = "application/javascript";
    r.body = origin::util::from_string("app();");
    return r;
  });
  server.listen(net, IpAddress::v4(0x0A000001));

  if (middlebox_kind == 1) {
    net.install_middlebox("wire-client", h2::passive_inspector());
  } else if (middlebox_kind == 2) {
    net.install_middlebox("wire-client", h2::strict_av_agent());
  } else if (middlebox_kind == 3) {
    auto fixed = h2::strict_av_agent();
    fixed->forward_type(0x0c);  // the vendor's September-2022 fix
    fixed->forward_type(0x0a);
    net.install_middlebox("wire-client", fixed);
  }

  web::Webpage page;
  page.base_hostname = "www.shop.example";
  web::Resource base;
  base.hostname = "www.shop.example";
  base.path = "/";
  page.resources.push_back(base);
  web::Resource js;
  js.hostname = "static.shop.example";
  js.path = "/app.js";
  js.parent = 0;
  page.resources.push_back(js);

  browser::LoaderOptions options;
  options.policy = "origin-frame";
  browser::WireClient client(env, net, options);
  Outcome outcome;
  client.load(page, [&](browser::WireLoadResult result) {
    outcome.page_ok = result.har.success;
    outcome.torn_down = result.robustness.connections_torn_down;
    outcome.coalesced = result.coalesced_requests;
  });
  sim.run_until_idle();
  return outcome;
}

}  // namespace

int main() {
  std::printf("== Ablation: non-compliant HTTP/2 middlebox (§6.7) ==\n");
  std::printf(
      "reproduces: §6.7 (AV agent tore down TLS connections on the unknown "
      "ORIGIN frame instead of ignoring it per RFC 9113 §4.1; fixed Sept "
      "2022)\n\n");

  origin::util::Table table({"Path", "Server ORIGIN", "Page loads?",
                             "Teardowns", "Coalesced reqs"});
  const char* kinds[] = {"clean", "compliant inspector", "buggy AV agent",
                         "AV agent after fix"};
  for (int kind = 0; kind <= 3; ++kind) {
    for (bool origin_frames : {false, true}) {
      auto outcome = run_case(origin_frames, kind);
      table.add_row({kinds[kind], origin_frames ? "on" : "off",
                     outcome.page_ok ? "yes" : "NO",
                     std::to_string(outcome.torn_down),
                     std::to_string(outcome.coalesced)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nonly the buggy agent with ORIGIN enabled breaks the page — exactly "
      "the incident that paused the paper's experiment.\n");
  return 0;
}
