#include "dns/record.h"

#include <algorithm>
#include <charconv>

namespace origin::dns {

std::string_view IpAddress::format(char (&buf)[kMaxTextSize]) const {
  char* out = buf;
  char* const end = buf + kMaxTextSize;
  if (family == Family::kV4) {
    const auto v = static_cast<std::uint32_t>(value);
    for (int shift = 24; shift >= 0; shift -= 8) {
      if (shift != 24) *out++ = '.';
      out = std::to_chars(out, end, (v >> shift) & 0xff).ptr;
    }
  } else {
    constexpr std::string_view kPrefix = "2001:db8::";
    out = std::copy(kPrefix.begin(), kPrefix.end(), out);
    out = std::to_chars(out, end, value, 16).ptr;
  }
  return {buf, static_cast<std::size_t>(out - buf)};
}

std::string IpAddress::to_string() const {
  char buf[kMaxTextSize];
  return std::string(format(buf));
}

const char* record_type_name(RecordType type) {
  switch (type) {
    case RecordType::kA: return "A";
    case RecordType::kAAAA: return "AAAA";
    case RecordType::kCNAME: return "CNAME";
  }
  return "?";
}

}  // namespace origin::dns
