#include "h2/middleboxes.h"

#include <algorithm>

namespace origin::h2 {

namespace {

// Strips the HTTP/2 client preface when present at the head of a
// client->server delivery; the frame parser does not understand it.
std::span<const std::uint8_t> strip_preface(
    std::span<const std::uint8_t> bytes, bool to_server) {
  if (!to_server) return bytes;
  static constexpr std::string_view magic = h2::kClientPreface;
  if (bytes.size() >= magic.size() &&
      std::equal(magic.begin(), magic.end(), bytes.begin())) {
    return bytes.subspan(magic.size());
  }
  return bytes;
}

}  // namespace

FrameTypeMiddlebox::FrameTypeMiddlebox(TypeSet teardown_types,
                                       std::string name)
    : teardown_types_(teardown_types), name_(std::move(name)) {}

netsim::Middlebox::Verdict FrameTypeMiddlebox::inspect(
    std::uint64_t connection_id, std::span<const std::uint8_t> bytes,
    bool to_server) {
  auto& parser = parsers_[{connection_id, to_server}];
  auto frames = parser.feed(strip_preface(bytes, to_server));
  if (!frames.ok()) return Verdict::kForward;  // opaque to the agent
  frames_seen_ += frames->size();
  for (const auto& frame : *frames) {
    const auto type = static_cast<std::uint8_t>(h2::frame_type_of(frame));
    if (teardown_types_.test(type)) {
      ++teardowns_;
      return Verdict::kTeardown;
    }
  }
  return Verdict::kForward;
}

std::shared_ptr<FrameTypeMiddlebox> passive_inspector() {
  return std::make_shared<FrameTypeMiddlebox>(FrameTypeMiddlebox::TypeSet{},
                                              "passive-inspector");
}

std::shared_ptr<FrameTypeMiddlebox> strict_av_agent() {
  // RFC 7540 core frame types only; ORIGIN (0xc) and ALTSVC (0xa) postdate
  // the agent's parser.
  FrameTypeMiddlebox::TypeSet teardown;
  teardown.set();
  for (std::uint8_t t = 0x0; t <= 0x9; ++t) teardown.reset(t);
  return std::make_shared<FrameTypeMiddlebox>(teardown, "strict-av-agent");
}

std::shared_ptr<FrameTypeMiddlebox> type_filter_agent(
    std::initializer_list<std::uint8_t> teardown_types) {
  FrameTypeMiddlebox::TypeSet teardown;
  for (const std::uint8_t t : teardown_types) teardown.set(t);
  return std::make_shared<FrameTypeMiddlebox>(teardown, "type-filter-agent");
}

netsim::Middlebox::Verdict FrameReorderingMiddlebox::inspect(
    std::uint64_t connection_id, std::span<const std::uint8_t> bytes,
    bool to_server) {
  (void)connection_id;
  (void)bytes;
  (void)to_server;
  return Verdict::kForward;
}

void FrameReorderingMiddlebox::transform(std::uint64_t connection_id,
                                         origin::util::Bytes& bytes,
                                         bool to_server) {
  (void)connection_id;
  // Reassembly only scrambles deliveries it can fully frame: find the frame
  // boundaries from the 9-byte headers and swap the first two frames. If
  // the delivery starts with a preface or ends mid-frame, leave it alone —
  // a partial swap would be a different bug than the one modelled here.
  std::size_t offset = 0;
  if (to_server) {
    static constexpr std::string_view magic = h2::kClientPreface;
    if (bytes.size() >= magic.size() &&
        std::equal(magic.begin(), magic.end(), bytes.begin())) {
      offset = magic.size();
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // (start, size)
  std::size_t pos = offset;
  while (pos + 9 <= bytes.size()) {
    const std::size_t length = (static_cast<std::size_t>(bytes[pos]) << 16) |
                               (static_cast<std::size_t>(bytes[pos + 1]) << 8) |
                               static_cast<std::size_t>(bytes[pos + 2]);
    const std::size_t total = 9 + length;
    if (pos + total > bytes.size()) return;  // ends mid-frame
    // analyze:allow(hot-transitive): bounded per-segment scratch —
    // a TCP segment carries at most a handful of frame boundaries
    frames.emplace_back(pos, total);
    pos += total;
  }
  if (pos != bytes.size() || frames.size() < 2) return;

  origin::util::Bytes out;
  out.reserve(bytes.size());
  out.insert(out.end(), bytes.begin(),
             bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  for (const auto& [start, size] : {frames[1], frames[0]}) {
    out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(start),
               bytes.begin() + static_cast<std::ptrdiff_t>(start + size));
  }
  const std::size_t rest = frames[1].first + frames[1].second;
  out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(rest),
             bytes.end());
  bytes = std::move(out);
  ++reorders_;
}

netsim::Middlebox::Verdict AuthorityPinningMiddlebox::inspect(
    std::uint64_t connection_id, std::span<const std::uint8_t> bytes,
    bool to_server) {
  // Only requests carry :authority; server bytes pass untouched (and must
  // not feed the client-direction parser).
  if (!to_server) return Verdict::kForward;
  auto& conn = connections_[connection_id];
  auto frames = conn.parser.feed(strip_preface(bytes, to_server));
  if (!frames.ok()) return Verdict::kForward;
  for (const auto& frame : *frames) {
    const auto* headers = std::get_if<h2::HeadersFrame>(&frame);
    if (headers == nullptr) continue;
    auto fields = conn.decoder.decode(headers->header_block);
    // An undecodable block leaves the shared dynamic table unusable; a
    // real DPI box fails open here rather than killing every connection.
    if (!fields.ok()) return Verdict::kForward;
    for (const auto& field : *fields) {
      if (field.name != ":authority") continue;
      if (conn.pinned_authority.empty()) {
        conn.pinned_authority = field.value;
      } else if (conn.pinned_authority != field.value) {
        ++teardowns_;
        connections_.erase(connection_id);
        return Verdict::kTeardown;
      }
    }
  }
  return Verdict::kForward;
}

}  // namespace origin::h2
