// The serving-side world a page load runs against: services (deployment
// units), their addresses, certificates, ORIGIN frame configuration, DNS
// zones, and CAs.
//
// A Service models one logical deployment — an origin server or one CDN
// customer configuration. The §4.1 model equates AS and coalescability;
// here each service carries its ASN and provider so the model layer can
// group either way.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dns/record.h"
#include "dns/zone.h"
#include "netsim/network.h"
#include "tls/ca.h"
#include "tls/certificate.h"
#include "util/flat_map.h"
#include "web/resource.h"

namespace origin::browser {

struct Service {
  std::string name;
  std::uint32_t asn = 0;
  std::string provider;  // organization (Table 2 granularity)
  std::vector<dns::IpAddress> addresses;
  std::shared_ptr<tls::Certificate> certificate;
  // Hostnames this deployment can authoritatively serve on its addresses.
  // A coalesced request for a host outside this set draws a 421.
  std::set<std::string> served_hostnames;
  // ORIGIN frame support: when enabled, new connections advertise
  // `origin_advertisement` on stream 0.
  bool origin_frame_enabled = false;
  std::vector<std::string> origin_advertisement;
  // Server think time for the `wait` phase, per request.
  double server_think_ms = 8.0;
  // Path characteristics from the measurement vantage to this deployment
  // (anycast CDNs are close; single-origin sites can be far away).
  netsim::LinkParams link;

  bool serves(const std::string& hostname) const {
    return served_hostnames.contains(hostname);
  }
};

class Environment {
 public:
  static constexpr std::size_t kNoService = static_cast<std::size_t>(-1);

  Environment();

  // Registers a service and creates DNS records for `hostname`s it serves.
  Service& add_service(Service service);

  Service* find_service(const std::string& hostname);
  const Service* find_service(const std::string& hostname) const;

  // Index into services() for the deployment serving `hostname`, or
  // kNoService. A read-only probe: safe to call from many threads once
  // add_service() calls are done (DESIGN.md §10 single-writer contract).
  std::size_t service_index(std::string_view hostname) const;

  // Re-points every address record of `hostname` at `addresses` (used by
  // the IP-coalescing deployment, §5.2, and undone for §5.3).
  void repoint_dns(const std::string& hostname,
                   const std::vector<dns::IpAddress>& addresses);

  dns::AuthoritativeDns& dns() { return dns_; }
  tls::TrustStore& trust_store() { return trust_store_; }

  // A shared CA used for convenience issuance in tests/examples.
  tls::CertificateAuthority& default_ca() { return *default_ca_; }
  tls::CertificateAuthority& add_ca(const std::string& name,
                                    std::size_t max_sans = 100);
  tls::CertificateAuthority* find_ca(const std::string& name);

  // Deque: service references stay valid as more services are added.
  std::deque<Service>& services() { return services_; }
  const std::deque<Service>& services() const { return services_; }

 private:
  std::deque<Service> services_;
  util::FlatMap<std::string, std::size_t> host_to_service_;
  dns::AuthoritativeDns dns_;
  tls::TrustStore trust_store_;
  std::vector<std::unique_ptr<tls::CertificateAuthority>> cas_;
  tls::CertificateAuthority* default_ca_ = nullptr;
};

}  // namespace origin::browser
