// Simulated network: endpoints addressed by IP, TCP-like connections with
// handshake latency, per-link latency/bandwidth, and middlebox
// interposition.
//
// The middlebox hook exists to reproduce the paper's §6.7 incident: an
// antivirus network agent that, instead of ignoring unknown HTTP/2 frames
// as RFC 9113 §4.1 mandates, tore down TLS connections when it saw an
// ORIGIN frame.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dns/record.h"
#include "netsim/simulator.h"
#include "util/bytes.h"
#include "util/ledger.h"
#include "util/result.h"

namespace origin::netsim {

class FaultInjector;

struct LinkParams {
  origin::util::Duration one_way = origin::util::Duration::millis(15);
  double bandwidth_bytes_per_sec = 12.5e6;  // ~100 Mbit/s

  origin::util::Duration rtt() const { return one_way * 2.0; }
  origin::util::Duration transfer_time(std::size_t bytes) const {
    return origin::util::Duration::seconds(
        static_cast<double>(bytes) / bandwidth_bytes_per_sec);
  }
};

class Network;

// One side of an established connection. Non-owning handle; the Network
// owns connection state. Handles stay valid until the connection closes
// and `on_close` has fired.
class TcpEndpoint {
 public:
  void send(origin::util::Bytes bytes);
  void close(const std::string& reason);
  bool open() const;

  void set_on_receive(
      std::function<void(std::span<const std::uint8_t>)> callback);
  void set_on_close(std::function<void(const std::string&)> callback);

  dns::IpAddress peer_address() const;
  // Tag of the client that opened this connection ("" once closed and
  // reaped). Lets servers key per-client state, e.g. the ORIGIN
  // kill-switch's teardown windows.
  std::string client_tag() const;
  std::uint64_t connection_id() const { return connection_id_; }

 private:
  friend class Network;
  Network* network_ = nullptr;
  std::uint64_t connection_id_ = 0;
  bool client_side_ = false;
};

// Inspects bytes in flight. Returning kTeardown kills the connection, which
// both sides observe as an abrupt close. One Middlebox instance sees every
// connection of the client it is installed for, so implementations key any
// parser state on `connection_id`.
class Middlebox {
 public:
  enum class Verdict { kForward, kTeardown };
  virtual ~Middlebox() = default;
  // `to_server` is true for client->server bytes.
  virtual Verdict inspect(std::uint64_t connection_id,
                          std::span<const std::uint8_t> bytes,
                          bool to_server) = 0;
  // Optional in-flight mutation (reordering/garbling devices); runs after
  // every middlebox voted kForward. Default leaves the bytes alone.
  virtual void transform(std::uint64_t connection_id,
                         origin::util::Bytes& bytes, bool to_server) {
    (void)connection_id;
    (void)bytes;
    (void)to_server;
  }
  virtual std::string name() const = 0;
};

struct NetworkStats {
  std::uint64_t tcp_handshakes = 0;
  // Refused connects — no listener on the address, or an injected refusal;
  // both count here so callers see one consistent failure signal.
  std::uint64_t connect_failures = 0;
  std::uint64_t middlebox_teardowns = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t injected_faults = 0;
  // Every teardown's close reason, verbatim — the middlebox name is no
  // longer lost between Network::teardown and WireLoadResult.errors.
  origin::util::ReasonCounts teardown_reasons;
};

class Network {
 public:
  explicit Network(Simulator& sim) : sim_(sim) {}

  void set_default_link(LinkParams params) { default_link_ = params; }
  // Overrides the link used for connections to `server` addresses.
  void set_link_to(dns::IpAddress server, LinkParams params) {
    link_overrides_[server] = params;
  }
  LinkParams link_to(dns::IpAddress server) const;

  // Registers a listener; `on_accept` receives the server-side endpoint of
  // each new connection.
  void listen(dns::IpAddress address,
              std::function<void(TcpEndpoint)> on_accept);
  void stop_listening(dns::IpAddress address);
  bool listening(dns::IpAddress address) const;

  // Interposes a middlebox on all connections from `client_tag` (e.g. the
  // user runs endpoint security software). Empty tag = all clients.
  void install_middlebox(std::string client_tag,
                         std::shared_ptr<Middlebox> middlebox);
  // Removes every middlebox installed for the tag (the §6.7 epilogue: the
  // vendor ships a fixed agent). Existing connections keep the boxes they
  // were established with.
  void uninstall_middleboxes(const std::string& client_tag);

  // Non-owning: the injector must outlive the network. Null disables
  // injection (the default).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // TCP connect: SYN/SYN-ACK costs one RTT; the callback then receives the
  // client-side endpoint, or an error if nothing listens on `server`.
  void connect(const std::string& client_tag, dns::IpAddress server,
               std::function<void(origin::util::Result<TcpEndpoint>)> callback);

  const NetworkStats& stats() const { return stats_; }
  Simulator& simulator() { return sim_; }

 private:
  friend class TcpEndpoint;

  struct Side {
    std::function<void(std::span<const std::uint8_t>)> on_receive;
    std::function<void(const std::string&)> on_close;
  };
  struct Connection {
    dns::IpAddress server_address;
    std::string client_tag;
    LinkParams link;
    Side client;
    Side server;
    std::vector<std::shared_ptr<Middlebox>> middleboxes;
    bool open = true;
    // Cumulative serialization backlog per direction so back-to-back sends
    // queue behind each other on the link.
    origin::util::SimTime client_clear_at;
    origin::util::SimTime server_clear_at;
    // Per-direction delivery counters: the injector pins a mid-stream fault
    // to (direction, event_index) so fault schedules replay exactly.
    std::uint32_t client_events = 0;
    std::uint32_t server_events = 0;
  };

  Connection* find(std::uint64_t id);
  void deliver(std::uint64_t id, bool to_server, origin::util::Bytes bytes);
  void teardown(std::uint64_t id, const std::string& reason);

  Simulator& sim_;
  LinkParams default_link_;
  std::map<dns::IpAddress, LinkParams> link_overrides_;
  std::map<dns::IpAddress, std::function<void(TcpEndpoint)>> listeners_;
  std::map<std::string, std::vector<std::shared_ptr<Middlebox>>> middleboxes_;
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_connection_id_ = 1;
  std::uint64_t connect_attempts_ = 0;
  FaultInjector* injector_ = nullptr;
  NetworkStats stats_;
};

}  // namespace origin::netsim
