#include "measure/reports.h"

#include <algorithm>
#include <set>

#include "dataset/catalog.h"
#include "util/strings.h"

namespace origin::measure {

using origin::util::format_count;
using origin::util::format_double;
using origin::util::format_pct;
using origin::util::Table;

void DatasetReport::add(const dataset::SiteInfo& site,
                        const web::PageLoad& load) {
  ++pages_;
  // Bucket by rank (Table 1 structure).
  const auto& buckets = dataset::rank_buckets();
  std::size_t bucket_index = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (site.rank >= buckets[b].rank_begin && site.rank < buckets[b].rank_end) {
      bucket_index = b;
      break;
    }
  }
  BucketStats& bucket = buckets_[bucket_index];
  ++bucket.successes;
  bucket.requests.push_back(static_cast<double>(load.request_count()));
  bucket.plt_ms.push_back(load.page_load_time().as_millis());
  bucket.dns.push_back(static_cast<double>(load.dns_query_count()));
  bucket.tls.push_back(static_cast<double>(load.tls_connection_count()));

  requests_per_page_.push_back(static_cast<double>(load.request_count()));
  plt_ms_.push_back(load.page_load_time().as_millis());
  dns_per_page_.push_back(static_cast<double>(load.dns_query_count()));
  tls_per_page_.push_back(static_cast<double>(load.tls_connection_count()));

  std::set<std::uint32_t> page_asns;
  for (const auto& entry : load.entries) {
    ++total_requests_;
    if (entry.asn != 0) {
      ++asn_requests_[entry.asn];
      page_asns.insert(entry.asn);
    }
    ++protocol_requests_[entry.version];
    if (entry.secure) ++secure_requests_;
    ++content_requests_[entry.content_type];
    ++asn_content_[entry.asn][entry.content_type];
    ++hostname_requests_[entry.hostname];
    if (entry.cert_san_count >= 0) {
      ++issuer_validations_[entry.cert_issuer];
      ++total_validations_;
    }
  }
  if (!page_asns.empty()) {
    unique_as_histogram_.add(static_cast<std::int64_t>(page_asns.size()));
  }
  // Attribute AS organization names lazily from the catalog.
  for (const auto& provider : dataset::providers()) {
    if (provider.asn != 0) asn_org_[provider.asn] = provider.organization;
  }
  (void)site;
}

Table DatasetReport::table1_summary() const {
  Table table({"Rank", "Success", "#Reqs", "PLT (ms)", "#DNS", "#TLS"});
  static const char* kLabels[] = {"1-100K", "100K-200K", "200K-300K",
                                  "300K-400K", "400K-500K"};
  std::vector<double> all_reqs, all_plt, all_dns, all_tls;
  std::uint64_t total_success = 0;
  for (const auto& [index, bucket] : buckets_) {
    table.add_row({kLabels[index], format_count(bucket.successes),
                   format_double(origin::util::percentile(bucket.requests, 50), 0),
                   format_double(origin::util::percentile(bucket.plt_ms, 50), 1),
                   format_double(origin::util::percentile(bucket.dns, 50), 0),
                   format_double(origin::util::percentile(bucket.tls, 50), 0)});
    total_success += bucket.successes;
    all_reqs.insert(all_reqs.end(), bucket.requests.begin(), bucket.requests.end());
    all_plt.insert(all_plt.end(), bucket.plt_ms.begin(), bucket.plt_ms.end());
    all_dns.insert(all_dns.end(), bucket.dns.begin(), bucket.dns.end());
    all_tls.insert(all_tls.end(), bucket.tls.begin(), bucket.tls.end());
  }
  table.add_row({"Total", format_count(total_success),
                 format_double(origin::util::percentile(all_reqs, 50), 0),
                 format_double(origin::util::percentile(all_plt, 50), 1),
                 format_double(origin::util::percentile(all_dns, 50), 0),
                 format_double(origin::util::percentile(all_tls, 50), 0)});
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  table.add_row({"mean", "",
                 format_double(mean(all_reqs), 1), format_double(mean(all_plt), 1),
                 format_double(mean(all_dns), 2), format_double(mean(all_tls), 2)});
  return table;
}

Table DatasetReport::table2_ases(std::size_t top_n) const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(
      asn_requests_.begin(), asn_requests_.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"Rank", "AS Number", "Org. Name", "#Req", "%"});
  double cumulative = 0.0;
  for (std::size_t i = 0; i < std::min(top_n, ranked.size()); ++i) {
    const auto& [asn, count] = ranked[i];
    auto org = asn_org_.find(asn);
    const double share =
        static_cast<double>(count) / static_cast<double>(total_requests_);
    cumulative += share;
    table.add_row({std::to_string(i + 1), "AS " + std::to_string(asn),
                   org != asn_org_.end() ? org->second : "(long tail)",
                   format_count(count), format_double(share * 100.0, 2)});
  }
  table.add_row({"", "", "Total", "", format_double(cumulative * 100.0, 2)});
  return table;
}

Table DatasetReport::table3_protocols() const {
  std::vector<std::pair<web::HttpVersion, std::uint64_t>> ranked(
      protocol_requests_.begin(), protocol_requests_.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"Protocol", "# Requests", "%"});
  for (const auto& [version, count] : ranked) {
    table.add_row({web::http_version_name(version), format_count(count),
                   format_double(100.0 * static_cast<double>(count) /
                                     static_cast<double>(total_requests_),
                                 2)});
  }
  table.add_row({"Total", format_count(total_requests_), "100.00"});
  table.add_row({"Secure", format_count(secure_requests_),
                 format_double(100.0 * static_cast<double>(secure_requests_) /
                                   static_cast<double>(total_requests_),
                               2)});
  table.add_row(
      {"Insecure", format_count(total_requests_ - secure_requests_),
       format_double(100.0 *
                         static_cast<double>(total_requests_ - secure_requests_) /
                         static_cast<double>(total_requests_),
                     2)});
  return table;
}

Table DatasetReport::table4_issuers(std::size_t top_n) const {
  std::vector<std::pair<std::string, std::uint64_t>> ranked(
      issuer_validations_.begin(), issuer_validations_.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"Certificate Issuer", "# Validations", "%"});
  for (std::size_t i = 0; i < std::min(top_n, ranked.size()); ++i) {
    table.add_row({ranked[i].first, format_count(ranked[i].second),
                   format_double(100.0 * static_cast<double>(ranked[i].second) /
                                     static_cast<double>(total_validations_),
                                 2)});
  }
  table.add_row({"Total validations (" +
                     format_pct(static_cast<double>(total_validations_) /
                                static_cast<double>(total_requests_)) +
                     " of requests)",
                 format_count(total_validations_), "100.00"});
  return table;
}

Table DatasetReport::table5_content_types(std::size_t top_n) const {
  std::vector<std::pair<web::ContentType, std::uint64_t>> ranked(
      content_requests_.begin(), content_requests_.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"Content Type", "# Req", "%"});
  std::size_t shown = 0;
  for (const auto& [type, count] : ranked) {
    if (type == web::ContentType::kOther) continue;  // paper lists named types
    if (shown++ >= top_n) break;
    table.add_row({web::content_type_name(type), format_count(count),
                   format_double(100.0 * static_cast<double>(count) /
                                     static_cast<double>(total_requests_),
                                 2)});
  }
  return table;
}

Table DatasetReport::table6_as_content(std::size_t top_ases,
                                       std::size_t top_types) const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked_as(
      asn_requests_.begin(), asn_requests_.end());
  std::sort(ranked_as.begin(), ranked_as.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"ASN", "Content Type", "#Req", "%"});
  for (std::size_t i = 0; i < std::min(top_ases, ranked_as.size()); ++i) {
    const std::uint32_t asn = ranked_as[i].first;
    const auto as_total = static_cast<double>(ranked_as[i].second);
    auto org = asn_org_.find(asn);
    auto content = asn_content_.find(asn);
    if (content == asn_content_.end()) continue;
    std::vector<std::pair<web::ContentType, std::uint64_t>> ranked_types(
        content->second.begin(), content->second.end());
    std::sort(ranked_types.begin(), ranked_types.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::size_t shown = 0;
    for (const auto& [type, count] : ranked_types) {
      if (type == web::ContentType::kOther) continue;
      if (shown++ >= top_types) break;
      table.add_row(
          {(org != asn_org_.end() ? org->second : std::to_string(asn)) +
               " (AS " + std::to_string(asn) + ")",
           web::content_type_name(type), format_count(count),
           format_double(100.0 * static_cast<double>(count) / as_total, 2)});
    }
  }
  return table;
}

Table DatasetReport::table7_hostnames(std::size_t top_n) const {
  std::vector<std::pair<std::string, std::uint64_t>> ranked;
  for (const auto& [hostname, count] : hostname_requests_) {
    // Subresource hostnames only: skip per-site first-party names, which
    // can never rank globally.
    ranked.emplace_back(hostname, count);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Table table({"Hostname", "#Req", "%"});
  for (std::size_t i = 0; i < std::min(top_n, ranked.size()); ++i) {
    table.add_row({ranked[i].first, format_count(ranked[i].second),
                   format_double(100.0 * static_cast<double>(ranked[i].second) /
                                     static_cast<double>(total_requests_),
                                 2)});
  }
  return table;
}

Table DatasetReport::fig1_unique_ases(std::size_t max_bin) const {
  Table table({"# Unique ASes", "% of pages", "CDF"});
  const double total = static_cast<double>(unique_as_histogram_.total());
  double cumulative = 0.0;
  for (std::size_t bin = 1; bin <= max_bin; ++bin) {
    const double frac =
        static_cast<double>(
            unique_as_histogram_.count(static_cast<std::int64_t>(bin))) /
        total;
    cumulative += frac;
    table.add_row({std::to_string(bin), format_double(frac * 100.0, 2),
                   format_double(cumulative, 3)});
  }
  // Remaining tail mass.
  table.add_row({"> " + std::to_string(max_bin),
                 format_double((1.0 - cumulative) * 100.0, 2), "1.000"});
  return table;
}

void RobustnessReport::add(const netsim::RobustnessStats& stats, bool complete,
                           double plt_ms) {
  totals_.merge(stats);
  ++loads_;
  if (complete) ++completed_;
  plt_ms_.push_back(plt_ms);
}

Table RobustnessReport::table() const {
  Table table({"metric", "value"});
  table.add_row({"loads", format_count(loads_)});
  table.add_row({"completion rate", format_pct(completion_rate())});
  totals_.for_each([&table](std::string_view name, std::uint64_t value) {
    table.add_row({std::string(name), format_count(value)});
  });
  for (const auto& [reason, count] : totals_.teardown_reasons) {
    table.add_row({"teardown: " + reason, format_count(count)});
  }
  return table;
}

}  // namespace origin::measure
