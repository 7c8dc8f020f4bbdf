// HAR 1.2 serialization of page loads.
//
// The paper's pipeline stored each page load as an HTTP Archive file from
// Chrome devtools; the §4 model consumed those files. This module writes
// our PageLoad structures as standards-shaped HAR JSON (log/entries with
// startedDateTime, timings {blocked, dns, connect, ssl, send, wait,
// receive}, request/response skeletons plus an `_origin` extension block
// for the reproduction-specific fields) and reads them back, so corpora
// can be exported for external tooling and reimported losslessly.
//
// Writing builds no DOM: write_har streams the canonical print (every
// object's keys in byte order, exactly what Json::parse + dump(2) gives
// back) through a util::JsonWriter. to_har_string is that writer over a
// string; har_fingerprint is the same writer over a util::Fnv1a64 state,
// which is how every corpus and pipeline digest hashes a page without
// printing it. Reading goes through the Json DOM, since a HAR import is
// external input of any shape.
#pragma once

#include <cstdint>
#include <string>

#include "util/fnv.h"
#include "util/json.h"
#include "util/result.h"
#include "web/har.h"

namespace origin::web {

// Prints one page load as canonical HAR JSON. Instantiated for the two
// sinks below (std::string and util::Fnv1a64).
template <typename Sink>
void write_har(const PageLoad& load, origin::util::JsonWriter<Sink>& writer);

extern template void write_har(const PageLoad&,
                               origin::util::JsonWriter<std::string>&);
extern template void write_har(const PageLoad&,
                               origin::util::JsonWriter<origin::util::Fnv1a64>&);

// The canonical print's indent: what to_har_string prints by default and
// what har_fingerprint hashes.
inline constexpr int kHarIndent = 2;

std::string to_har_string(const PageLoad& load, int indent = kHarIndent);

// FNV-1a of the page's HAR print, chained from `seed`: exactly
// fnv1a64(to_har_string(load), seed), computed without the string and
// without allocating.
std::uint64_t har_fingerprint(const PageLoad& load,
                              std::uint64_t seed = origin::util::kFnvOffset);

// Parses a HAR document produced by to_har_string back into a PageLoad.
[[nodiscard]] origin::util::Result<PageLoad> from_har_json(const origin::util::Json& har);
[[nodiscard]] origin::util::Result<PageLoad> from_har_string(std::string_view text);

}  // namespace origin::web
