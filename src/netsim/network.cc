#include "netsim/network.h"

#include <algorithm>

#include "netsim/faults.h"

namespace origin::netsim {

using origin::util::Bytes;
using origin::util::make_error;
using origin::util::Result;

void TcpEndpoint::send(Bytes bytes) {
  if (network_ == nullptr) return;
  network_->deliver(connection_id_, client_side_, std::move(bytes));
}

void TcpEndpoint::close(const std::string& reason) {
  if (network_ == nullptr) return;
  network_->teardown(connection_id_, reason);
}

bool TcpEndpoint::open() const {
  if (network_ == nullptr) return false;
  auto* conn = network_->find(connection_id_);
  return conn != nullptr && conn->open;
}

void TcpEndpoint::set_on_receive(
    std::function<void(std::span<const std::uint8_t>)> callback) {
  auto* conn = network_->find(connection_id_);
  if (conn == nullptr) return;
  (client_side_ ? conn->client : conn->server).on_receive = std::move(callback);
}

void TcpEndpoint::set_on_close(
    std::function<void(const std::string&)> callback) {
  auto* conn = network_->find(connection_id_);
  if (conn == nullptr) return;
  (client_side_ ? conn->client : conn->server).on_close = std::move(callback);
}

dns::IpAddress TcpEndpoint::peer_address() const {
  auto* conn = network_->find(connection_id_);
  return conn == nullptr ? dns::IpAddress{} : conn->server_address;
}

std::string TcpEndpoint::client_tag() const {
  if (network_ == nullptr) return "";
  auto* conn = network_->find(connection_id_);
  return conn == nullptr ? "" : conn->client_tag;
}

LinkParams Network::link_to(dns::IpAddress server) const {
  auto it = link_overrides_.find(server);
  return it == link_overrides_.end() ? default_link_ : it->second;
}

void Network::listen(dns::IpAddress address,
                     std::function<void(TcpEndpoint)> on_accept) {
  listeners_[address] = std::move(on_accept);
}

void Network::stop_listening(dns::IpAddress address) {
  listeners_.erase(address);
}

bool Network::listening(dns::IpAddress address) const {
  return listeners_.count(address) > 0;
}

void Network::install_middlebox(std::string client_tag,
                                std::shared_ptr<Middlebox> middlebox) {
  middleboxes_[std::move(client_tag)].push_back(std::move(middlebox));
}

void Network::uninstall_middleboxes(const std::string& client_tag) {
  middleboxes_.erase(client_tag);
}

void Network::connect(
    const std::string& client_tag, dns::IpAddress server,
    std::function<void(Result<TcpEndpoint>)> callback) {
  const LinkParams link = link_to(server);
  const std::uint64_t attempt = ++connect_attempts_;
  // SYN out, SYN-ACK back: the callback fires one RTT from now.
  sim_.schedule(link.rtt(), [this, client_tag, server, link, attempt,
                             callback = std::move(callback)]() {
    if (injector_ != nullptr) {
      const FaultKind fault = injector_->connect_fault(attempt);
      if (fault == FaultKind::kConnectRefused && injector_->consume_budget()) {
        ++stats_.injected_faults;
        // Same failure signal as an unlistened address: connect_failures
        // counts refused connects of either cause.
        ++stats_.connect_failures;
        callback(make_error("injected: connection refused " +
                            server.to_string()));
        return;
      }
      if (fault == FaultKind::kConnectTimeout && injector_->consume_budget()) {
        ++stats_.injected_faults;
        // SYN blackhole: the callback never fires; the client's own
        // connect timer has to notice.
        return;
      }
    }
    auto listener = listeners_.find(server);
    if (listener == listeners_.end()) {
      ++stats_.connect_failures;
      callback(make_error("netsim: connection refused " + server.to_string()));
      return;
    }
    ++stats_.tcp_handshakes;
    const std::uint64_t id = next_connection_id_++;
    Connection conn;
    conn.server_address = server;
    conn.client_tag = client_tag;
    conn.link = link;
    conn.client_clear_at = sim_.now();
    conn.server_clear_at = sim_.now();
    // Middleboxes installed for this client plus the catch-all tag.
    for (const auto& tag : {client_tag, std::string()}) {
      auto it = middleboxes_.find(tag);
      if (it != middleboxes_.end()) {
        conn.middleboxes.insert(conn.middleboxes.end(), it->second.begin(),
                                it->second.end());
      }
    }
    connections_.emplace(id, std::move(conn));

    TcpEndpoint client_end;
    client_end.network_ = this;
    client_end.connection_id_ = id;
    client_end.client_side_ = true;
    TcpEndpoint server_end;
    server_end.network_ = this;
    server_end.connection_id_ = id;
    server_end.client_side_ = false;

    // Accept first so the server installs its callbacks before any client
    // bytes can arrive.
    listener->second(server_end);
    callback(client_end);
  });
}

Network::Connection* Network::find(std::uint64_t id) {
  auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

void Network::deliver(std::uint64_t id, bool from_client, Bytes bytes) {
  Connection* conn = find(id);
  if (conn == nullptr || !conn->open || bytes.empty()) return;
  stats_.bytes_sent += bytes.size();

  for (const auto& middlebox : conn->middleboxes) {
    if (middlebox->inspect(id, bytes, from_client) ==
        Middlebox::Verdict::kTeardown) {
      ++stats_.middlebox_teardowns;
      teardown(id, "middlebox teardown: " + middlebox->name());
      return;
    }
  }
  for (const auto& middlebox : conn->middleboxes) {
    middlebox->transform(id, bytes, from_client);
  }
  if (bytes.empty()) return;

  // Injected mid-stream fault, pinned to this connection's (direction,
  // event index) so the schedule is independent of interleaving.
  origin::util::Duration stall_extra;
  std::uint32_t& events =
      from_client ? conn->client_events : conn->server_events;
  const std::uint32_t event_index = events++;
  if (injector_ != nullptr) {
    const StreamFaultPlan plan = injector_->stream_fault(id);
    if (plan.kind != FaultKind::kNone && plan.to_server == from_client &&
        plan.event_index == event_index && injector_->consume_budget()) {
      ++stats_.injected_faults;
      switch (plan.kind) {
        case FaultKind::kRst:
          // analyze:allow(hot-transitive): fault-injection branch
          // only — the teardown reason is off the steady-state path
          teardown(id, std::string("injected: rst (") +
                           fault_kind_name(plan.kind) + ")");
          return;
        case FaultKind::kTruncate: {
          const std::size_t keep = bytes.size() / 2;
          // analyze:allow(hot-transitive): shrinking resize never
          // reallocates; keep is always <= the current size
          bytes.resize(keep);
          if (bytes.empty()) return;
          break;
        }
        case FaultKind::kCorrupt:
          bytes[injector_->corrupt_offset(id, bytes.size())] ^= 0x20;
          break;
        case FaultKind::kStall:
          stall_extra = injector_->stall_delay();
          break;
        default:
          break;
      }
    }
  }

  // Serialization delay: bytes queue behind previously-sent bytes in the
  // same direction, then cross the link's one-way latency.
  origin::util::SimTime& clear_at =
      from_client ? conn->client_clear_at : conn->server_clear_at;
  if (clear_at < sim_.now()) clear_at = sim_.now();
  clear_at = clear_at + conn->link.transfer_time(bytes.size());
  const origin::util::SimTime arrival =
      clear_at + conn->link.one_way + stall_extra;

  sim_.schedule_at(arrival, [this, id, from_client,
                             bytes = std::move(bytes)]() {
    Connection* conn = find(id);
    if (conn == nullptr || !conn->open) return;
    auto& receiver = from_client ? conn->server : conn->client;
    if (receiver.on_receive) receiver.on_receive(bytes);
  });
}

void Network::teardown(std::uint64_t id, const std::string& reason) {
  Connection* conn = find(id);
  if (conn == nullptr || !conn->open) return;
  conn->open = false;
  // The verbatim close reason is part of the network's record — callers
  // like WireLoadResult.errors no longer lose the middlebox name.
  stats_.teardown_reasons.record(reason);
  // Deliver close notifications asynchronously, like RST segments. Each
  // side's on_close fires at most once (open flips false above, and a
  // second teardown on the same id is a no-op), then the connection state
  // is reaped so long-lived networks do not accumulate dead entries.
  sim_.schedule(conn->link.one_way, [this, id, reason]() {
    Connection* conn = find(id);
    if (conn == nullptr) return;
    if (conn->client.on_close) conn->client.on_close(reason);
    if (conn->server.on_close) conn->server.on_close(reason);
    connections_.erase(id);
  });
}

}  // namespace origin::netsim
