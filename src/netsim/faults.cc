#include "netsim/faults.h"

#include <charconv>
#include <cstdio>

#include "util/fnv.h"

namespace origin::netsim {

using origin::util::Duration;
using origin::util::fnv1a64_mix;
using origin::util::make_error;
using origin::util::Result;

namespace {

// Domain-separation salts: one per decision family, so e.g. the connect
// roll for id 7 is independent of the stream roll for connection 7.
constexpr std::uint64_t kSaltConnect = 0xC0FFEE01;
constexpr std::uint64_t kSaltStreamKind = 0xC0FFEE02;
constexpr std::uint64_t kSaltStreamWhere = 0xC0FFEE03;
constexpr std::uint64_t kSaltTls = 0xC0FFEE04;
constexpr std::uint64_t kSaltCorrupt = 0xC0FFEE05;

// Uniform [0,1) from (seed, salt, id): the PR-2 determinism idiom — a pure
// hash, never a stateful RNG, so decisions are independent of evaluation
// order and thread count.
double roll(std::uint64_t seed, std::uint64_t salt, std::uint64_t id) {
  const std::uint64_t h = fnv1a64_mix(fnv1a64_mix(seed, salt), id);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool parse_double(std::string_view text, double* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

struct RateField {
  const char* key;
  double FaultConfig::* member;
};

constexpr RateField kRateFields[] = {
    {"connect_refused", &FaultConfig::connect_refused},
    {"connect_timeout", &FaultConfig::connect_timeout},
    {"rst", &FaultConfig::rst},
    {"truncate", &FaultConfig::truncate},
    {"corrupt", &FaultConfig::corrupt},
    {"stall", &FaultConfig::stall},
    {"tls_handshake", &FaultConfig::tls_handshake},
    {"dns_servfail", &FaultConfig::dns_servfail},
    {"dns_timeout", &FaultConfig::dns_timeout},
};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kConnectRefused: return "connect_refused";
    case FaultKind::kConnectTimeout: return "connect_timeout";
    case FaultKind::kRst: return "rst";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDnsServfail: return "dns_servfail";
    case FaultKind::kDnsTimeout: return "dns_timeout";
    case FaultKind::kTlsHandshake: return "tls_handshake";
  }
  return "unknown";
}

Result<FaultConfig> FaultConfig::parse(std::string_view text) {
  FaultConfig config;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view item = text.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim surrounding spaces; empty items (trailing commas) are allowed.
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size()) {
      return make_error("fault config: expected key=value, got '" +
                        std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);

    if (key == "seed") {
      if (!parse_u64(value, &config.seed)) {
        return make_error("fault config: bad seed '" + std::string(value) +
                          "'");
      }
      continue;
    }
    if (key == "max_faults") {
      if (!parse_u64(value, &config.max_faults)) {
        return make_error("fault config: bad max_faults '" +
                          std::string(value) + "'");
      }
      continue;
    }
    if (key == "stall_delay_ms") {
      double ms = 0;
      if (!parse_double(value, &ms) || !(ms >= 0) || ms > 1e9) {
        return make_error("fault config: bad stall_delay_ms '" +
                          std::string(value) + "'");
      }
      config.stall_delay = Duration::millis(ms);
      continue;
    }

    bool matched = false;
    for (const auto& field : kRateFields) {
      if (key != field.key) continue;
      double rate = 0;
      // !(>= 0 && <= 1) also rejects NaN.
      if (!parse_double(value, &rate) || !(rate >= 0.0 && rate <= 1.0)) {
        return make_error("fault config: rate '" + std::string(key) +
                          "' must be in [0,1], got '" + std::string(value) +
                          "'");
      }
      config.*(field.member) = rate;
      matched = true;
      break;
    }
    if (!matched) {
      return make_error("fault config: unknown key '" + std::string(key) +
                        "'");
    }
  }
  return config;
}

FaultConfig FaultConfig::uniform(double rate, std::uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  // Connect faults split between refusal and blackhole; one mid-stream
  // fault kind drawn at `rate` total; TLS and DNS scaled down so the
  // headline number stays dominated by the connection-level kinds.
  config.connect_refused = rate / 2.0;
  config.connect_timeout = rate / 2.0;
  config.rst = rate / 4.0;
  config.truncate = rate / 4.0;
  config.corrupt = rate / 4.0;
  config.stall = rate / 4.0;
  config.tls_handshake = rate / 2.0;
  config.dns_servfail = rate / 4.0;
  config.dns_timeout = rate / 4.0;
  return config;
}

std::string FaultConfig::serialize() const {
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "seed=%llu,connect_refused=%.17g,connect_timeout=%.17g,rst=%.17g,"
      "truncate=%.17g,corrupt=%.17g,stall=%.17g,tls_handshake=%.17g,"
      "dns_servfail=%.17g,dns_timeout=%.17g,stall_delay_ms=%.17g,"
      "max_faults=%llu",
      static_cast<unsigned long long>(seed), connect_refused, connect_timeout,
      rst, truncate, corrupt, stall, tls_handshake, dns_servfail, dns_timeout,
      stall_delay.as_millis(), static_cast<unsigned long long>(max_faults));
  return buffer;
}

bool FaultConfig::any_enabled() const {
  return connect_refused > 0 || connect_timeout > 0 || rst > 0 ||
         truncate > 0 || corrupt > 0 || stall > 0 || tls_handshake > 0 ||
         dns_servfail > 0 || dns_timeout > 0;
}

FaultKind FaultInjector::connect_fault(std::uint64_t attempt) const {
  const double r = roll(config_.seed, kSaltConnect, attempt);
  if (r < config_.connect_refused) return FaultKind::kConnectRefused;
  if (r < config_.connect_refused + config_.connect_timeout) {
    return FaultKind::kConnectTimeout;
  }
  return FaultKind::kNone;
}

StreamFaultPlan FaultInjector::stream_fault(std::uint64_t connection_id) const {
  StreamFaultPlan plan;
  const double r = roll(config_.seed, kSaltStreamKind, connection_id);
  double edge = config_.rst;
  if (r < edge) {
    plan.kind = FaultKind::kRst;
  } else if (r < (edge += config_.truncate)) {
    plan.kind = FaultKind::kTruncate;
  } else if (r < (edge += config_.corrupt)) {
    plan.kind = FaultKind::kCorrupt;
  } else if (r < (edge += config_.stall)) {
    plan.kind = FaultKind::kStall;
  } else {
    return plan;
  }
  const std::uint64_t where =
      fnv1a64_mix(fnv1a64_mix(config_.seed, kSaltStreamWhere), connection_id);
  // Early event indices: most connections only see a handful of deliveries
  // per direction, and a fault that never fires is not a fault.
  plan.event_index = static_cast<std::uint32_t>(where % 3);
  plan.to_server = ((where >> 32) & 1) != 0;
  return plan;
}

bool FaultInjector::tls_fault(std::uint64_t connection_id) const {
  return roll(config_.seed, kSaltTls, connection_id) < config_.tls_handshake;
}

std::size_t FaultInjector::corrupt_offset(std::uint64_t connection_id,
                                          std::size_t size) const {
  if (size == 0) return 0;
  return static_cast<std::size_t>(
      fnv1a64_mix(fnv1a64_mix(config_.seed, kSaltCorrupt), connection_id) %
      size);
}

bool FaultInjector::consume_budget() {
  if (config_.max_faults != 0 && injected_ >= config_.max_faults) return false;
  ++injected_;
  return true;
}

}  // namespace origin::netsim
