#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "dataset/collector.h"
#include "dataset/generator.h"
#include "util/alloc_guard.h"
#include "util/fnv.h"
#include "util/json.h"
#include "web/har_json.h"

namespace origin {
namespace {

using util::Json;

// --- JSON core ---

TEST(Json, BuildAndDump) {
  Json::Object object;
  object["name"] = "value";
  object["count"] = 42;
  object["ratio"] = 0.5;
  object["flag"] = true;
  object["nothing"] = nullptr;
  object["list"] = Json(Json::Array{Json(1), Json(2)});
  Json json(std::move(object));
  EXPECT_EQ(json.dump(),
            R"({"count":42,"flag":true,"list":[1,2],"name":"value",)"
            R"("nothing":null,"ratio":0.5})");
}

TEST(Json, PrettyPrintHasIndentation) {
  Json::Object object;
  object["a"] = 1;
  std::string pretty = Json(std::move(object)).dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"s":"hi","i":-3,"d":2.25,"b":false,"n":null,"a":[1,"two",{"k":3}]})";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ((*parsed)["s"].as_string(), "hi");
  EXPECT_EQ((*parsed)["i"].as_int(), -3);
  EXPECT_DOUBLE_EQ((*parsed)["d"].as_double(), 2.25);
  EXPECT_FALSE((*parsed)["b"].as_bool());
  EXPECT_TRUE((*parsed)["n"].is_null());
  const auto& array = (*parsed)["a"].as_array();
  ASSERT_EQ(array.size(), 3u);
  EXPECT_EQ(array[2]["k"].as_int(), 3);
  // Dump -> parse -> dump is a fixed point.
  auto redumped = Json::parse(parsed->dump());
  ASSERT_TRUE(redumped.ok());
  EXPECT_EQ(redumped->dump(), parsed->dump());
}

// JsonWriter prints doubles with std::to_chars(general, 15); Json::dump
// printed them with "%.15g" before, and every committed JSON file and HAR
// digest depends on the two agreeing.
TEST(Json, DoubleFormatIsPrintfG15) {
  std::vector<double> values = {0.0, -0.0, 0.5, -1.234, 1e-7, 123456789.123,
                                9223372036854775.807, 1e300, -2.5e-310,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min()};
  std::uint64_t bits = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 2000; ++i) {
    bits = bits * 6364136223846793005ULL + 1442695040888963407ULL;
    values.push_back(std::bit_cast<double>(bits));
    const auto micros = static_cast<std::int64_t>(bits >> 12);
    values.push_back(static_cast<double>(micros) / 1000.0);
  }
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    char expected[40];
    std::snprintf(expected, sizeof(expected), "%.15g", v);
    EXPECT_EQ(Json(v).dump(), expected);
  }
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscapes) {
  Json value(std::string("line\n\"quoted\"\tand\\slash"));
  auto parsed = Json::parse(value.dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "line\n\"quoted\"\tand\\slash");
}

TEST(Json, ParseUnicodeEscape) {
  auto parsed = Json::parse(R"("aAb")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "aAb");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("12 34").ok());
  EXPECT_FALSE(Json::parse("nul").ok());
}

TEST(Json, MissingKeyIsNull) {
  auto parsed = Json::parse(R"({"a":1})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["missing"].is_null());
  EXPECT_FALSE(parsed->contains("missing"));
  EXPECT_TRUE(parsed->contains("a"));
}

// --- HAR export/import ---

web::PageLoad sample_load() {
  dataset::CorpusOptions options;
  options.site_count = 60;
  options.seed = 3;
  options.tail_service_count = 80;
  dataset::Corpus corpus(options);
  browser::LoaderOptions loader_options;
  browser::PageLoader loader(corpus.env(), loader_options);
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    if (corpus.sites()[i].crawl_succeeded) {
      return loader.load(corpus.page_for_site(i));
    }
  }
  return {};
}

// A page with no entries: `entries` and every other array dump as `[]`.
web::PageLoad empty_page() {
  web::PageLoad page;
  page.tranco_rank = 7;
  page.base_hostname = "empty.example";
  page.success = false;
  return page;
}

// A page built to reach every writer rule: strings holding `"`, `\`,
// control bytes and high bytes; an empty and a non-empty dnsAnswerSet;
// negative and +-INT64_MAX-microsecond timings (`%.15g` exponent form);
// a v6 address and ids whose int64 cast is negative.
web::PageLoad escape_page() {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  web::PageLoad page;
  page.tranco_rank = 0xfedcba9876543210ULL;
  page.base_hostname = std::string("q\"uote\\back\nline\x01" "ctl\xc3\xa9");
  page.extra_dns_queries = 3;
  page.extra_tls_connections = 1;

  web::HarEntry odd;
  odd.resource_index = 0;
  odd.hostname = std::string("h\to\rs\bt\f\x1f\x7f") + "/";
  odd.server_address = dns::IpAddress::v6(0xfedcba9876543210ULL);
  odd.asn = 4294967295u;
  odd.version = web::HttpVersion::kH3;
  odd.secure = false;
  odd.mode = web::RequestMode::kNavigation;
  odd.content_type = web::ContentType::kHtml;
  odd.start = util::SimTime::from_micros(-1);
  odd.timings.blocked = util::Duration::micros(kMax);
  odd.timings.dns = util::Duration::micros(-kMax);
  odd.timings.connect = util::Duration::micros(-1234);
  odd.timings.send = util::Duration::micros(1);
  odd.timings.wait = util::Duration::micros(999);
  odd.timings.receive = util::Duration::micros(1500001);
  odd.new_dns_query = true;
  odd.speculative_duplicate = true;
  odd.connection_id = 0x8000000000000001ULL;
  odd.cert_serial = ~0ULL;
  odd.cert_issuer = "Issuer \"CA\" \\ \x01";
  odd.cert_san_count = -1;
  odd.status_421 = true;
  page.entries.push_back(odd);

  web::HarEntry plain;
  plain.resource_index = 1;
  plain.hostname = "cdn.example";
  plain.server_address = dns::IpAddress::v4(0xC0A80001u);
  plain.dns_answer_set = {dns::IpAddress::v4(0xC0A80001u),
                          dns::IpAddress::v4(0xFFFFFFFFu)};
  plain.start = util::SimTime::from_micros(123456789);
  plain.timings.wait = util::Duration::micros(-kMax);
  plain.timings.receive = util::Duration::micros(kMax);
  plain.new_tls_connection = true;
  plain.connection_id = 42;
  plain.cert_serial = 17;
  plain.cert_issuer = "Plain CA";
  plain.cert_san_count = 12;
  page.entries.push_back(plain);
  return page;
}

// The exact bytes of the canonical HAR print, pinned by size and FNV-1a.
// Recorded from the Json-DOM printer; any writer that replaces it must
// reproduce them, because every corpus digest chains over these bytes.
TEST(HarJson, GoldenBytes) {
  struct Golden {
    const char* name;
    web::PageLoad page;
    std::size_t size;
    std::uint64_t fnv;
  };
  const Golden goldens[] = {
      {"sample_load", sample_load(), 97604u, 0x7fb00ff73cbc6f2eULL},
      {"empty_page", empty_page(), 435u, 0x6e49cefc9d81bf5dULL},
      {"escape_page", escape_page(), 2840u, 0x972febc6c2a13893ULL},
  };
  for (const Golden& golden : goldens) {
    const std::string text = web::to_har_string(golden.page);
    EXPECT_EQ(text.size(), golden.size) << golden.name;
    EXPECT_EQ(util::fnv1a64(text), golden.fnv)
        << golden.name << std::hex << " 0x" << util::fnv1a64(text);
  }
  EXPECT_NE(web::to_har_string(escape_page()).find("\\u0001"),
            std::string::npos);
  EXPECT_NE(web::to_har_string(empty_page()).find("\"entries\": []"),
            std::string::npos);
  EXPECT_NE(web::to_har_string(escape_page()).find("9.22337203685478e+15"),
            std::string::npos);
}

// Parsing a HAR print and re-dumping the DOM gives the same bytes: the
// hand-ordered writer emits keys in the DOM's (std::map) byte order.
TEST(HarJson, ReparseRedumpIsIdentity) {
  for (const web::PageLoad& page :
       {sample_load(), empty_page(), escape_page()}) {
    const std::string text = web::to_har_string(page);
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed->dump(2), text);
    EXPECT_EQ(parsed->dump(), web::to_har_string(page, 0));
  }
}

TEST(HarJson, ExportHasHarShape) {
  auto load = sample_load();
  ASSERT_FALSE(load.entries.empty());
  auto parsed = Json::parse(web::to_har_string(load));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Json& har = *parsed;
  EXPECT_EQ(har["log"]["version"].as_string(), "1.2");
  EXPECT_EQ(har["log"]["creator"]["name"].as_string(),
            "respect-the-origin-repro");
  ASSERT_TRUE(har["log"]["entries"].is_array());
  EXPECT_EQ(har["log"]["entries"].as_array().size(), load.entries.size());
  const Json& first = har["log"]["entries"].as_array().front();
  EXPECT_TRUE(first["timings"].is_object());
  EXPECT_TRUE(first["_origin"].is_object());
  EXPECT_EQ(first["request"]["method"].as_string(), "GET");
}

// Every page the fingerprint tests hash: the generated sample, the two
// hand-built pages, and each committed fuzz seed that imports as a HAR.
std::vector<web::PageLoad> fingerprint_pages() {
  std::vector<web::PageLoad> pages = {sample_load(), empty_page(),
                                      escape_page()};
  const std::filesystem::path dir =
      std::filesystem::path(ORIGIN_FUZZ_CORPUS_DIR) / "har_json";
  std::vector<std::filesystem::path> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    seeds.push_back(entry.path());
  }
  std::sort(seeds.begin(), seeds.end());
  for (const auto& path : seeds) {
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    auto load = web::from_har_string(text);
    if (load.ok()) pages.push_back(std::move(load).value());
  }
  return pages;
}

TEST(HarJson, FingerprintEqualsHashedString) {
  const auto pages = fingerprint_pages();
  ASSERT_GT(pages.size(), 4u) << "no fuzz seed imported as a HAR";
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::string text = web::to_har_string(pages[i]);
    for (std::uint64_t seed : {util::kFnvOffset, std::uint64_t{0},
                               std::uint64_t{0x9e3779b97f4a7c15ULL}}) {
      EXPECT_EQ(web::har_fingerprint(pages[i], seed), util::fnv1a64(text, seed))
          << "page " << i;
    }
  }
}

// The corpus digest runs har_fingerprint once per page; it must not touch
// the allocator at all.
TEST(HarJson, FingerprintAllocatesNothing) {
  ASSERT_TRUE(util::alloc_hook_touch());
  const auto pages = fingerprint_pages();
  std::uint64_t digest = web::har_fingerprint(pages.front());
  util::AllocGuard guard;
  for (const auto& page : pages) digest = web::har_fingerprint(page, digest);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_NE(digest, 0u);
}

TEST(HarJson, RoundTripPreservesAnalysisInputs) {
  auto load = sample_load();
  ASSERT_FALSE(load.entries.empty());
  auto text = web::to_har_string(load);
  auto restored = web::from_har_string(text);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  EXPECT_EQ(restored->base_hostname, load.base_hostname);
  EXPECT_EQ(restored->tranco_rank, load.tranco_rank);
  EXPECT_EQ(restored->extra_dns_queries, load.extra_dns_queries);
  EXPECT_EQ(restored->extra_tls_connections, load.extra_tls_connections);
  ASSERT_EQ(restored->entries.size(), load.entries.size());

  // Everything the §4 model reads must survive the round trip exactly.
  EXPECT_EQ(restored->dns_query_count(), load.dns_query_count());
  EXPECT_EQ(restored->tls_connection_count(), load.tls_connection_count());
  EXPECT_EQ(restored->certificate_validation_count(),
            load.certificate_validation_count());
  EXPECT_EQ(restored->unique_connection_count(),
            load.unique_connection_count());
  EXPECT_EQ(restored->unique_asns(), load.unique_asns());
  for (std::size_t i = 0; i < load.entries.size(); ++i) {
    const auto& a = load.entries[i];
    const auto& b = restored->entries[i];
    EXPECT_EQ(b.hostname, a.hostname);
    EXPECT_EQ(b.asn, a.asn);
    EXPECT_EQ(b.server_address, a.server_address);
    EXPECT_EQ(b.mode, a.mode);
    EXPECT_EQ(b.version, a.version);
    EXPECT_EQ(b.secure, a.secure);
    EXPECT_EQ(b.connection_id, a.connection_id);
    EXPECT_EQ(b.cert_issuer, a.cert_issuer);
    EXPECT_EQ(b.cert_san_count, a.cert_san_count);
    // Timings round to microsecond-from-millisecond precision.
    EXPECT_NEAR(b.timings.total().as_millis(), a.timings.total().as_millis(),
                0.01);
    EXPECT_NEAR(b.start.as_millis(), a.start.as_millis(), 0.01);
  }
  EXPECT_NEAR(restored->page_load_time().as_millis(),
              load.page_load_time().as_millis(), 0.1);
}

TEST(HarJson, RejectsNonHarDocuments) {
  EXPECT_FALSE(web::from_har_string("{}").ok());
  EXPECT_FALSE(web::from_har_string(R"({"log":{"pages":[]}})").ok());
  EXPECT_FALSE(web::from_har_string("not json at all").ok());
}

}  // namespace
}  // namespace origin
