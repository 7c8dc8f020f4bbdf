#include "browser/environment.h"

#include "util/fnv.h"
#include "util/strings.h"

namespace origin::browser {

Environment::Environment() {
  default_ca_ = &add_ca("Repro Default CA");
}

tls::CertificateAuthority& Environment::add_ca(const std::string& name,
                                               std::size_t max_sans) {
  cas_.push_back(std::make_unique<tls::CertificateAuthority>(
      name, origin::util::fnv1a64(name), max_sans));
  trust_store_.add_ca(cas_.back().get());
  return *cas_.back();
}

tls::CertificateAuthority* Environment::find_ca(const std::string& name) {
  for (auto& ca : cas_) {
    if (ca->name() == name) return ca.get();
  }
  return nullptr;
}

Service& Environment::add_service(Service service) {
  services_.push_back(std::move(service));
  Service& added = services_.back();
  const std::size_t index = services_.size() - 1;
  for (const auto& hostname : added.served_hostnames) {
    // First registration wins, matching the previous std::map::emplace
    // semantics for hostnames served by several deployments.
    host_to_service_.emplace(hostname, index);
    // One zone per registrable domain keeps longest-suffix resolution
    // working for sharded subdomains.
    const std::string apex = origin::util::registrable_domain(hostname);
    dns::Zone* zone = dns_.find_zone_for(hostname);
    if (zone == nullptr || zone->apex() != apex) zone = &dns_.add_zone(apex);
    // Each hostname of a multi-address deployment answers with its own
    // 2-address window into the service's address set. Windows of sibling
    // hostnames overlap (IP transitivity holds) but their first addresses
    // differ — the §2.3 situation in which Chromium's connected-set check
    // misses while Firefox's available-set check still matches, and in
    // which ideal-IP coalescing only merges some of the connections.
    if (added.addresses.size() >= 3) {
      const std::size_t offset =
          origin::util::fnv1a64(hostname) % added.addresses.size();
      zone->add_a(hostname, added.addresses[offset]);
      zone->add_a(hostname,
                  added.addresses[(offset + 1) % added.addresses.size()]);
    } else {
      for (const auto& address : added.addresses) {
        zone->add_a(hostname, address);
      }
    }
  }
  return added;
}

std::size_t Environment::service_index(std::string_view hostname) const {
  const std::size_t* index = host_to_service_.find(hostname);
  return index == nullptr ? kNoService : *index;
}

Service* Environment::find_service(const std::string& hostname) {
  const std::size_t index = service_index(hostname);
  return index == kNoService ? nullptr : &services_[index];
}

const Service* Environment::find_service(const std::string& hostname) const {
  const std::size_t index = service_index(hostname);
  return index == kNoService ? nullptr : &services_[index];
}

void Environment::repoint_dns(const std::string& hostname,
                              const std::vector<dns::IpAddress>& addresses) {
  dns::Zone* zone = dns_.find_zone_for(hostname);
  if (zone == nullptr) return;
  zone->clear_addresses(hostname);
  for (const auto& address : addresses) zone->add_a(hostname, address);
  // Keep the service's own view in sync so reachability checks (421) and
  // future connections agree with DNS.
  if (Service* service = find_service(hostname)) {
    service->addresses = addresses;
  }
}

}  // namespace origin::browser
