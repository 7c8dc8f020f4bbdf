// Concrete middleboxes used by the experiments.
//
// The hostile ones parameterize the §6.7 incident family: devices that key
// decisions on HTTP/2 frame types (teardown-on-ORIGIN, teardown-on-unknown),
// reorder frames in flight, or enforce that every request's :authority
// matches the connection's first one (anti-domain-fronting DPI — the
// middlebox behaviour that makes coalescing itself the trigger).
#pragma once

#include <bitset>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "h2/frame.h"
#include "hpack/hpack.h"
#include "netsim/network.h"

namespace origin::h2 {

// A network agent that parses every HTTP/2 frame it carries and tears the
// connection down on the first frame whose type is in its teardown set.
// One device covers the §6.7 family, by the set it is built with:
//   * passive_inspector(): empty set — looks at every frame and forwards
//     everything (the baseline that proves inspection alone breaks
//     nothing);
//   * strict_av_agent(): the §6.7 bug — tears down on every type outside
//     the RFC 7540 core frames 0x0–0x9 instead of ignoring unknown types as
//     RFC 9113 §4.1 requires, so ORIGIN (0xc) triggers the teardown;
//   * type_filter_agent({0x0c}): tolerates arbitrary unknown frames but
//     specifically hates the coalescing advertisement.
class FrameTypeMiddlebox : public netsim::Middlebox {
 public:
  using TypeSet = std::bitset<256>;

  FrameTypeMiddlebox(TypeSet teardown_types, std::string name);

  // Forward `type` from now on (the vendor's fix teaches the agent a type).
  void forward_type(std::uint8_t type) { teardown_types_.reset(type); }

  netsim::Middlebox::Verdict inspect(std::uint64_t connection_id,
                  std::span<const std::uint8_t> bytes, bool to_server) override;
  std::string name() const override { return name_; }
  std::uint64_t frames_seen() const { return frames_seen_; }
  std::uint64_t teardowns() const { return teardowns_; }

 private:
  TypeSet teardown_types_;
  std::string name_;
  // One parser per (connection, direction): a middlebox instance sees every
  // connection of its client, and interleaved byte streams would otherwise
  // garble a single parser.
  std::map<std::pair<std::uint64_t, bool>, h2::FrameParser> parsers_;
  std::uint64_t frames_seen_ = 0;
  std::uint64_t teardowns_ = 0;
};

std::shared_ptr<FrameTypeMiddlebox> passive_inspector();
std::shared_ptr<FrameTypeMiddlebox> strict_av_agent();
std::shared_ptr<FrameTypeMiddlebox> type_filter_agent(
    std::initializer_list<std::uint8_t> teardown_types);

// Swaps the first two complete frames inside a delivery (a buggy
// load-balancer reassembly path). Never tears down by itself; the damage
// surfaces as an h2 protocol error on the receiving endpoint, exercising
// the client's GOAWAY/re-dispatch degradation path.
class FrameReorderingMiddlebox : public netsim::Middlebox {
 public:
  netsim::Middlebox::Verdict inspect(std::uint64_t connection_id,
                  std::span<const std::uint8_t> bytes, bool to_server) override;
  void transform(std::uint64_t connection_id, origin::util::Bytes& bytes,
                 bool to_server) override;
  std::string name() const override { return "frame-reordering-lb"; }
  std::uint64_t reorders() const { return reorders_; }

 private:
  std::uint64_t reorders_ = 0;
};

// Anti-domain-fronting DPI: pins each connection to the :authority of its
// first request and kills the connection when a later request names a
// different one — exactly the device for which a coalesced request IS the
// anomaly. Drives the client's avoid-list: after one teardown the pair
// must go to a dedicated connection and never re-coalesce.
class AuthorityPinningMiddlebox : public netsim::Middlebox {
 public:
  netsim::Middlebox::Verdict inspect(std::uint64_t connection_id,
                  std::span<const std::uint8_t> bytes, bool to_server) override;
  std::string name() const override { return "authority-pinning-proxy"; }
  std::uint64_t teardowns() const { return teardowns_; }

 private:
  struct ConnState {
    h2::FrameParser parser;
    hpack::Decoder decoder;
    std::string pinned_authority;
  };
  std::map<std::uint64_t, ConnState> connections_;
  std::uint64_t teardowns_ = 0;
};

}  // namespace origin::h2
