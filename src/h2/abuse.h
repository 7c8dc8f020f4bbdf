// Seeded HTTP/2 abusive-client generators.
//
// Every server-side overload defense (server/http2_server.h) is paired with
// a reproducible attacker here, so the defenses are tested against the real
// frame sequences they exist for rather than hand-waved unit inputs:
//
//   kRapidReset     bursts of HEADERS immediately followed by RST_STREAM
//                   (CVE-2023-44487 shape): each pair costs the server a
//                   full request dispatch while the client pays almost
//                   nothing.
//   kHeaderBomb     HEADERS with an oversized literal header block, split
//                   across CONTINUATION frames, inflating the server's
//                   header accounting.
//   kPingFlood      bursts of PING frames, each demanding an ack.
//   kSettingsFlood  bursts of empty SETTINGS frames, each demanding an ack.
//   kSlowloris      a connection that trickles a few preface bytes and then
//                   stalls forever, pinning server session state until the
//                   deadline-driven reaper notices.
//
// Generators are driven entirely by the discrete-event simulator and a
// caller-provided seed: the same (kind, seed, options) triple always emits
// the same frame schedule, so every shed decision the server makes is
// replayable bit for bit. They live in src/h2 (not netsim) because they
// speak the protocol: the layering contract keeps netsim below h2.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dns/record.h"
#include "hpack/hpack.h"
#include "netsim/network.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace origin::h2 {

enum class AbuseKind : std::uint8_t {
  kRapidReset,
  kHeaderBomb,
  kPingFlood,
  kSettingsFlood,
  kSlowloris,
};

const char* abuse_kind_name(AbuseKind kind);

// A named mix of attackers, parsed from the ORIGIN_ABUSE_MIX environment
// knob ("rapid_reset=2,ping_flood=1,slowloris=4"). Unknown keys, malformed
// counts, and missing '=' are errors — the same strict contract as
// netsim::FaultConfig::parse.
struct AbuseMix {
  std::size_t rapid_reset = 0;
  std::size_t header_bomb = 0;
  std::size_t ping_flood = 0;
  std::size_t settings_flood = 0;
  std::size_t slowloris = 0;

  [[nodiscard]] static origin::util::Result<AbuseMix> parse(
      std::string_view text);

  // Canonical key=value form; parse(serialize()) round-trips.
  std::string serialize() const;

  std::size_t total() const;

  // The mix expanded into one AbuseKind per client, in canonical order
  // (rapid_reset first, slowloris last) so client tags are stable.
  std::vector<AbuseKind> expand() const;
};

struct AbusiveClientOptions {
  // Sending rounds after the connect; bounded so run_until_idle terminates
  // even when the server never sheds the client.
  std::size_t bursts = 8;
  // Frames emitted per round (pairs count as two for rapid reset).
  std::size_t frames_per_burst = 64;
  origin::util::Duration burst_interval = origin::util::Duration::millis(5);
  // Header bomb: bytes of literal header value per HEADERS+CONTINUATION
  // round.
  std::size_t bomb_bytes = 64 * 1024;
  // Slowloris: preface bytes trickled one per interval, then silence. Six
  // bytes never completes the 24-byte client preface.
  std::size_t trickle_bytes = 6;
  origin::util::Duration trickle_interval = origin::util::Duration::seconds(2);
  // How long a burst client lingers after its last round before closing
  // itself. netsim drops in-flight bytes once either side tears down, so a
  // client that hangs up right after its final send would un-deliver its
  // own attack; the linger must exceed the link's one-way latency plus
  // transfer time for the last burst to land (and gives the server's shed
  // GOAWAY time to arrive).
  origin::util::Duration linger = origin::util::Duration::millis(250);
  // :authority for generated requests (rapid reset / header bomb).
  std::string authority = "www.site.com";
};

// One reproducible attacker. `start()` connects under the client tag
// "abuse:<kind>:<seed>" and schedules the kind's frame program; the client
// stops as soon as its endpoint closes (the server shed it) or its burst
// budget runs out, closing the connection itself in the latter case (except
// slowloris, whose entire point is never to close).
class AbusiveClient {
 public:
  AbusiveClient(netsim::Network& network, AbuseKind kind, std::uint64_t seed,
                AbusiveClientOptions options = {});

  void start(dns::IpAddress target);

  AbuseKind kind() const { return kind_; }
  const std::string& tag() const { return tag_; }
  bool connected() const { return connected_; }
  // The server (or network) closed this client's connection.
  bool closed() const { return closed_; }
  const std::string& close_reason() const { return close_reason_; }
  // Shed = closed by a server-side overload/admission decision.
  bool shed() const { return shed_; }
  std::uint64_t frames_sent() const { return frames_sent_; }

 private:
  void run_burst(std::size_t round);
  void run_trickle(std::size_t sent);
  origin::util::Bytes burst_bytes(std::size_t round);
  std::uint32_t open_stream_id();

  netsim::Network& network_;
  AbuseKind kind_;
  std::uint64_t seed_;
  AbusiveClientOptions options_;
  std::string tag_;
  netsim::TcpEndpoint endpoint_;
  hpack::Encoder encoder_;
  std::uint32_t next_stream_id_ = 1;
  bool connected_ = false;
  bool closed_ = false;
  bool shed_ = false;
  std::string close_reason_;
  std::uint64_t frames_sent_ = 0;
};

// True when a netsim close reason records a deliberate server-side shed
// (overload budget, admission decision, or drain) rather than a normal
// close — the bit the admission greylist feeds on.
bool abusive_close_reason(const std::string& reason);

}  // namespace origin::h2
