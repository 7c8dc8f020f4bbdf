#include "browser/wire_client.h"

#include <algorithm>

#include "server/http2_server.h"
#include "tls/handshake.h"
#include "util/fnv.h"

namespace origin::browser {

using origin::util::Duration;

WireClient::WireClient(Environment& env, netsim::Network& network,
                       LoaderOptions options, DegradationOptions degradation)
    : env_(env),
      network_(network),
      options_(std::move(options)),
      degradation_(degradation),
      policy_(make_policy(options_.policy)) {
  if (policy_ == nullptr) policy_ = std::make_unique<ChromiumIpPolicy>();
}

void WireClient::load(const web::Webpage& page,
                      std::function<void(WireLoadResult)> done) {
  auto state = std::make_shared<LoadState>();
  state->page = page;
  state->har.tranco_rank = page.tranco_rank;
  state->har.base_hostname = page.base_hostname;
  state->har.entries.resize(page.resources.size());
  state->outstanding_children.assign(page.resources.size(), 0);
  state->resource_done.assign(page.resources.size(), 0);
  state->attempts.assign(page.resources.size(), 0);
  state->retry_budget_left = degradation_.retry_budget;
  const std::uint64_t seed = resolver_seed_++;
  dns::Resolver::Params resolver_params = options_.resolver;
  if (auto* injector = network_.fault_injector()) {
    // Mirror the network's DNS fault plan into this load's resolver; the
    // per-load seed keeps schedules independent across loads yet
    // deterministic for a given (fault seed, load index).
    const netsim::FaultConfig& config = injector->config();
    resolver_params.fault_servfail_rate = config.dns_servfail;
    resolver_params.fault_timeout_rate = config.dns_timeout;
    resolver_params.fault_seed = origin::util::fnv1a64_mix(config.seed, seed);
  }
  state->resolver =
      std::make_unique<dns::Resolver>(env_.dns(), resolver_params, seed);
  state->done = std::move(done);
  active_.push_back(state);

  for (std::size_t i = 0; i < page.resources.size(); ++i) {
    auto& entry = state->har.entries[i];
    entry.resource_index = static_cast<int>(i);
    entry.hostname = page.resources[i].hostname;
    entry.content_type = page.resources[i].content_type;
    entry.mode = page.resources[i].mode;
    entry.version = page.resources[i].version;
  }
  if (page.resources.empty()) {
    finish_load(state, true);
    return;
  }
  // A stalled load (SYN blackhole, stalled delivery, lost close...) must
  // still terminate: past the deadline it finishes with complete = false.
  std::weak_ptr<LoadState> weak_state = state;
  network_.simulator().schedule(degradation_.load_deadline, [this,
                                                            weak_state]() {
    auto state = weak_state.lock();
    if (!state || state->finished) return;
    ++state->result.robustness.deadline_expirations;
    for (std::size_t i = 0; i < state->page.resources.size(); ++i) {
      if (!state->resource_done[i]) {
        state->har.success = false;
        state->result.errors.push_back("load deadline exceeded: " +
                                       state->page.resources[i].hostname);
      }
    }
    finish_load(state, false);
  });
  // Root resources (parent < 0) dispatch immediately; children when their
  // parent completes.
  for (std::size_t i = 0; i < page.resources.size(); ++i) {
    if (page.resources[i].parent < 0) {
      dispatch(state, static_cast<int>(i), false);
    }
  }
}

void WireClient::add_avoid(std::shared_ptr<LoadState> state,
                           const std::string& a, const std::string& b) {
  if (!degradation_.enabled || !degradation_.use_avoid_list) return;
  if (a == b) return;  // same-host reuse is never an avoid-list matter
  auto pair = std::minmax(a, b);
  if (state->avoid.insert({pair.first, pair.second}).second) {
    ++state->result.robustness.avoid_list_entries;
  }
}

bool WireClient::should_avoid(const std::shared_ptr<LoadState>& state,
                              const std::string& a,
                              const std::string& b) const {
  if (!degradation_.enabled || !degradation_.use_avoid_list) return false;
  auto pair = std::minmax(a, b);
  return state->avoid.contains({pair.first, pair.second});
}

bool WireClient::retry_resource(std::shared_ptr<LoadState> state,
                                int resource_index) {
  if (!degradation_.enabled || state->finished) return false;
  const auto idx = static_cast<std::size_t>(resource_index);
  if (state->resource_done[idx]) return false;
  if (state->attempts[idx] + 1 >= degradation_.max_attempts_per_resource) {
    return false;
  }
  if (state->retry_budget_left <= 0) {
    ++state->result.robustness.retry_budget_exhausted;
    return false;
  }
  --state->retry_budget_left;
  const int attempt = ++state->attempts[idx];
  ++state->result.robustness.retries;
  Duration backoff = degradation_.backoff_initial;
  for (int i = 1; i < attempt && backoff < degradation_.backoff_cap; ++i) {
    backoff = backoff * degradation_.backoff_multiplier;
  }
  backoff = std::min(backoff, degradation_.backoff_cap);
  state->result.robustness.backoff_micros +=
      static_cast<std::uint64_t>(backoff.count_micros());
  // Retries go to a dedicated connection — same semantics as the 421
  // retry: whatever shared path failed is not trusted a second time.
  network_.simulator().schedule(backoff, [this, state, resource_index]() {
    if (state->finished ||
        state->resource_done[static_cast<std::size_t>(resource_index)]) {
      return;
    }
    dispatch(state, resource_index, /*dedicated=*/true);
  });
  return true;
}

bool WireClient::redispatch_resource(std::shared_ptr<LoadState> state,
                                     int resource_index) {
  if (state->finished) return false;
  const auto idx = static_cast<std::size_t>(resource_index);
  if (state->resource_done[idx]) return false;
  if (state->attempts[idx] + 1 >= degradation_.max_attempts_per_resource) {
    return false;
  }
  // A drain is not a failure: no retry budget, no backoff — but the
  // attempt still counts so repeated drains cannot loop forever. The
  // dispatch itself reruns the normal connection selection, which skips
  // draining connections and honors the avoid-list.
  ++state->attempts[idx];
  network_.simulator().schedule(
      Duration::micros(0), [this, state, resource_index]() {
        if (state->finished ||
            state->resource_done[static_cast<std::size_t>(resource_index)]) {
          return;
        }
        dispatch(state, resource_index, /*dedicated=*/false);
      });
  return true;
}

void WireClient::fail_pending_streams(std::shared_ptr<LoadState> state,
                                      std::shared_ptr<LiveConnection> conn,
                                      const std::string& error,
                                      bool avoid_coalesced) {
  auto pending = std::move(conn->streams);
  conn->streams.clear();
  for (const auto& [stream_id, ps] : pending) {
    (void)stream_id;
    const auto idx = static_cast<std::size_t>(ps.resource);
    if (avoid_coalesced && ps.coalesced) {
      add_avoid(state, state->page.resources[idx].hostname, conn->record.sni);
    }
    if (retry_resource(state, ps.resource)) {
      ++state->result.robustness.redispatched_streams;
    } else {
      complete_resource(state, ps.resource, false, error);
    }
  }
}

void WireClient::dispatch(std::shared_ptr<LoadState> state, int resource_index,
                          bool dedicated) {
  const web::Resource& res =
      state->page.resources[static_cast<std::size_t>(resource_index)];
  auto& entry = state->har.entries[static_cast<std::size_t>(resource_index)];
  entry.start = network_.simulator().now();

  const std::string pool_key =
      (res.mode == web::RequestMode::kCorsAnonymous ||
       res.mode == web::RequestMode::kFetchApi)
          ? "anon"
          : "cred";

  // Same-host reuse first; then policy coalescing (both skipped when the
  // resource demands a dedicated connection — a 421 retry or a degradation
  // retry after a coalesced failure).
  if (!dedicated) {
    for (auto& conn : state->pool) {
      if (!conn->alive || conn->draining ||
          conn->record.pool_key != pool_key) {
        continue;
      }
      // Keep the policy view of the origin set fresh from the live h2
      // connection (ORIGIN frames may have arrived since the record was
      // created).
      conn->record.origin_set = conn->h2->origin_set();
      if (conn->record.sni == res.hostname) {
        ++state->result.coalesced_requests;
        send_request(state, resource_index, conn, true);
        return;
      }
      if (pool_key == "cred" &&
          !should_avoid(state, res.hostname, conn->record.sni) &&
          policy_->can_decide_without_dns(conn->record, res.hostname) &&
          policy_->evaluate(conn->record, res.hostname, {}).reuse) {
        ++state->result.coalesced_requests;
        send_request(state, resource_index, conn, true);
        return;
      }
    }
  }

  // Blocking DNS query.
  auto answer = state->resolver->resolve(res.hostname, dns::Family::kV4,
                                         network_.simulator().now());
  entry.new_dns_query = !answer.from_cache;
  entry.timings.dns = answer.latency;
  network_.simulator().schedule(answer.latency, [this, state, resource_index,
                                                 answer, dedicated,
                                                 pool_key]() {
    if (state->finished ||
        state->resource_done[static_cast<std::size_t>(resource_index)]) {
      return;
    }
    const web::Resource& res =
        state->page.resources[static_cast<std::size_t>(resource_index)];
    if (!answer.ok) {
      if (answer.injected_fault) {
        // SERVFAIL/timeout is transient: a backoff retry re-queries
        // upstream (injected failures are not negative-cached).
        ++state->result.robustness.dns_failures;
        if (retry_resource(state, resource_index)) return;
      }
      complete_resource(state, resource_index, false,
                        "dns failure for " + res.hostname);
      return;
    }
    if (!dedicated && pool_key == "cred") {
      for (auto& conn : state->pool) {
        if (!conn->alive || conn->draining ||
            conn->record.pool_key != pool_key) {
          continue;
        }
        if (should_avoid(state, res.hostname, conn->record.sni)) {
          ++state->result.robustness.avoided_coalescings;
          continue;
        }
        conn->record.origin_set = conn->h2->origin_set();
        auto decision =
            policy_->evaluate(conn->record, res.hostname, answer.addresses);
        if (decision.reuse) {
          ++state->result.coalesced_requests;
          send_request(state, resource_index, conn, true);
          return;
        }
      }
    }
    open_connection(state, resource_index, answer, dedicated);
  });
}

void WireClient::open_connection(std::shared_ptr<LoadState> state,
                                 int resource_index, const dns::Answer& answer,
                                 bool dedicated) {
  (void)dedicated;
  const web::Resource& res =
      state->page.resources[static_cast<std::size_t>(resource_index)];
  const Service* service = env_.find_service(res.hostname);
  const dns::IpAddress address = answer.addresses.front();

  // The connect attempt and its timeout race; whoever flips `settled`
  // first owns the resource's fate. A late SYN-ACK after the timeout is
  // closed immediately, like a kernel RST for an abandoned socket.
  auto settled = std::make_shared<bool>(false);
  const int attempt_at_dispatch =
      state->attempts[static_cast<std::size_t>(resource_index)];
  if (degradation_.enabled) {
    network_.simulator().schedule(
        degradation_.connect_timeout,
        [this, state, resource_index, settled, attempt_at_dispatch]() {
          if (*settled || state->finished) return;
          const auto idx = static_cast<std::size_t>(resource_index);
          if (state->resource_done[idx] ||
              state->attempts[idx] != attempt_at_dispatch) {
            return;
          }
          *settled = true;
          ++state->result.robustness.connect_timeouts;
          if (!retry_resource(state, resource_index)) {
            complete_resource(
                state, resource_index, false,
                "connect timeout for " +
                    state->page.resources[idx].hostname);
          }
        });
  }

  network_.connect(
      options_.network_tag, address,
      [this, state, resource_index, answer, address, service, settled](
          origin::util::Result<netsim::TcpEndpoint> endpoint) {
        if (*settled) {
          if (endpoint.ok()) {
            auto late = *endpoint;
            late.close("late connect after timeout");
          }
          return;
        }
        *settled = true;
        if (state->finished ||
            state->resource_done[static_cast<std::size_t>(resource_index)]) {
          if (endpoint.ok()) {
            auto unused = *endpoint;
            unused.close("load finished before connect");
          }
          return;
        }
        const web::Resource& res =
            state->page.resources[static_cast<std::size_t>(resource_index)];
        auto& entry =
            state->har.entries[static_cast<std::size_t>(resource_index)];
        if (!endpoint.ok()) {
          ++state->result.robustness.connect_failures;
          if (!retry_resource(state, resource_index)) {
            complete_resource(state, resource_index, false,
                              endpoint.error().message);
          }
          return;
        }
        // TLS handshake: validate the service certificate, then price the
        // handshake RTTs by delaying h2 startup.
        if (service == nullptr || service->certificate == nullptr) {
          complete_resource(state, resource_index, false,
                            "no service for " + res.hostname);
          return;
        }
        if (auto* injector = network_.fault_injector();
            injector != nullptr &&
            injector->tls_fault((*endpoint).connection_id()) &&
            injector->consume_budget()) {
          ++state->result.robustness.tls_failures;
          auto failed = *endpoint;
          failed.close("injected: tls handshake failure");
          if (!retry_resource(state, resource_index)) {
            complete_resource(state, resource_index, false,
                              "tls handshake failure for " + res.hostname);
          }
          return;
        }
        tls::CertificateChain chain;
        chain.leaf = *service->certificate;
        auto handshake = tls::simulate_handshake(chain, options_.handshake);
        if (!handshake.ok) {
          complete_resource(state, resource_index, false,
                            "ssl protocol error (oversized certificate)");
          return;
        }
        auto outcome = env_.trust_store().validate(
            *service->certificate, res.hostname, network_.simulator().now());
        if (outcome != tls::TrustStore::Outcome::kOk) {
          complete_resource(state, resource_index, false,
                            std::string("certificate validation failed: ") +
                                tls::TrustStore::outcome_name(outcome));
          return;
        }
        entry.new_tls_connection = true;
        entry.cert_serial = service->certificate->serial;
        entry.cert_issuer = service->certificate->issuer;
        entry.cert_san_count =
            static_cast<std::int64_t>(service->certificate->san_dns.size());
        ++state->result.connections_opened;

        auto conn = std::make_shared<LiveConnection>();
        conn->service = service;
        conn->endpoint = *endpoint;
        conn->record.id = next_connection_id_++;
        conn->record.sni = res.hostname;
        conn->record.connected_address = address;
        conn->record.available_set = answer.addresses;
        conn->record.certificate = *service->certificate;
        conn->record.http2 = true;
        conn->record.pool_key =
            (res.mode == web::RequestMode::kCorsAnonymous ||
             res.mode == web::RequestMode::kFetchApi)
                ? "anon"
                : "cred";
        h2::Origin initial;
        initial.host = res.hostname;
        conn->h2 = std::make_shared<h2::Connection>(
            h2::Connection::Role::kClient, initial);
        conn->record.origin_set = conn->h2->origin_set();

        h2::ConnectionCallbacks callbacks;
        std::weak_ptr<LiveConnection> weak_conn = conn;
        auto weak_state = std::weak_ptr<LoadState>(state);
        callbacks.on_headers = [this, weak_state, weak_conn](
                                   std::uint32_t stream_id,
                                   const hpack::HeaderList& headers,
                                   bool end_stream) {
          auto state = weak_state.lock();
          auto conn = weak_conn.lock();
          if (!state || !conn || state->finished) return;
          auto it = conn->streams.find(stream_id);
          if (it == conn->streams.end()) return;
          const int resource_index = it->second.resource;
          const bool coalesced = it->second.coalesced;
          const std::string_view status =
              server::header_value(headers, ":status");
          auto& entry =
              state->har.entries[static_cast<std::size_t>(resource_index)];
          if (status == "421") {
            conn->streams.erase(it);
            if (entry.status_421) {
              // Already retried once on a dedicated connection and the
              // deployment still cannot serve the authority: terminal.
              complete_resource(state, resource_index, false,
                                "421 on dedicated connection");
              return;
            }
            // Misdirected: retry on a dedicated connection (§2.2), and
            // remember the pair — the browser will not re-coalesce a host
            // that answered 421 onto this origin again.
            if (coalesced) {
              add_avoid(
                  state,
                  state->page
                      .resources[static_cast<std::size_t>(resource_index)]
                      .hostname,
                  conn->record.sni);
            }
            entry.status_421 = true;
            ++state->result.retries_after_421;
            dispatch(state, resource_index, /*dedicated=*/true);
            return;
          }
          if (end_stream) {
            conn->streams.erase(it);
            complete_resource(state, resource_index, status == "200",
                              status == "200"
                                  ? ""
                                  : "status " + std::string(status));
          }
        };
        callbacks.on_data = [this, weak_state, weak_conn](
                                std::uint32_t stream_id,
                                std::span<const std::uint8_t>,
                                bool end_stream) {
          auto state = weak_state.lock();
          auto conn = weak_conn.lock();
          if (!state || !conn || !end_stream || state->finished) return;
          auto it = conn->streams.find(stream_id);
          if (it == conn->streams.end()) return;
          const int resource_index = it->second.resource;
          conn->streams.erase(it);
          complete_resource(state, resource_index, true, "");
        };
        callbacks.on_goaway = [this, weak_state, weak_conn](
                                  const h2::GoAwayFrame& goaway) {
          auto state = weak_state.lock();
          auto conn = weak_conn.lock();
          if (!state || !conn || state->finished) return;
          ++state->result.robustness.goaways_received;
          conn->draining = true;
          // Streams the server never processed (id > last_stream_id) are
          // safe to re-dispatch verbatim on another connection.
          std::vector<std::pair<std::uint32_t, PendingStream>> unprocessed;
          for (auto it = conn->streams.begin(); it != conn->streams.end();) {
            if (it->first > goaway.last_stream_id) {
              unprocessed.emplace_back(*it);
              it = conn->streams.erase(it);
            } else {
              ++it;
            }
          }
          // A graceful drain (NO_ERROR) re-dispatches budget-free; an
          // error GOAWAY goes through the normal retry budget.
          const bool graceful = goaway.error == h2::ErrorCode::kNoError;
          for (const auto& [stream_id, ps] : unprocessed) {
            (void)stream_id;
            if (graceful && redispatch_resource(state, ps.resource)) {
              ++state->result.robustness.goaway_redispatches;
            } else if (retry_resource(state, ps.resource)) {
              ++state->result.robustness.redispatched_streams;
            } else {
              complete_resource(state, ps.resource, false,
                                "goaway: stream not processed");
            }
          }
        };
        conn->h2->set_callbacks(std::move(callbacks));

        conn->endpoint.set_on_receive([this, weak_state, weak_conn](
                                          std::span<const std::uint8_t>
                                              bytes) {
          auto state = weak_state.lock();
          auto conn = weak_conn.lock();
          if (!state || !conn) return;
          auto status = conn->h2->receive(bytes);
          // Flush first: a failed receive queues a GOAWAY that should
          // still reach the peer.
          if (conn->h2->has_output() && conn->endpoint.open()) {
            conn->endpoint.send(conn->h2->take_output());
          }
          if (!status.ok() && conn->alive) {
            // The h2 layer declared the connection dead (e.g. garbled
            // frames from a corrupting middlebox).
            conn->alive = false;
            if (state->finished) return;
            ++state->result.robustness.h2_protocol_errors;
            const std::string error =
                "h2 protocol error: " + status.error().message;
            if (conn->endpoint.open()) conn->endpoint.close(error);
            fail_pending_streams(state, conn, error,
                                 /*avoid_coalesced=*/true);
          }
        });
        conn->endpoint.set_on_close([this, weak_state, weak_conn](
                                        const std::string& reason) {
          auto state = weak_state.lock();
          auto conn = weak_conn.lock();
          if (!state || !conn) return;
          const bool was_alive = conn->alive;
          conn->alive = false;
          conn->close_reason = reason;
          // finish_load closes its pool with "load complete"; that is not
          // a degradation event.
          if (state->finished) return;
          ++state->result.robustness.connections_torn_down;
          state->result.robustness.teardown_reasons.record(reason);
          if (!was_alive) return;  // streams already failed at the h2 layer
          // Every in-flight request on this connection fails (§6.7: the
          // user sees broken page loads) — or, with degradation enabled,
          // is re-dispatched on a dedicated connection with the coalesced
          // pair avoid-listed.
          fail_pending_streams(state, conn, "connection torn down: " + reason,
                               /*avoid_coalesced=*/true);
        });

        state->pool.push_back(conn);
        // Delay the first request by the handshake cost beyond the TCP
        // round trip netsim already charged.
        auto delay = options_.link.rtt() *
                         static_cast<double>(handshake.round_trips) +
                     options_.handshake.crypto_cost;
        auto& handshake_entry =
            state->har.entries[static_cast<std::size_t>(resource_index)];
        handshake_entry.timings.connect = options_.link.rtt();
        handshake_entry.timings.ssl = delay;
        network_.simulator().schedule(delay, [this, state, resource_index,
                                              conn]() {
          if (state->finished ||
              state->resource_done[static_cast<std::size_t>(
                  resource_index)]) {
            return;
          }
          if (!conn->alive) {
            // Torn down (e.g. by a §6.7 middlebox) before the first
            // request could be sent; the close reason propagates verbatim.
            const std::string reason =
                conn->close_reason.empty()
                    ? "connection torn down during handshake"
                    : "connection torn down during handshake: " +
                          conn->close_reason;
            if (!retry_resource(state, resource_index)) {
              complete_resource(state, resource_index, false, reason);
            }
            return;
          }
          send_request(state, resource_index, conn, false);
        });
      });
}

void WireClient::send_request(std::shared_ptr<LoadState> state,
                              int resource_index,
                              std::shared_ptr<LiveConnection> conn,
                              bool coalesced) {
  const web::Resource& res =
      state->page.resources[static_cast<std::size_t>(resource_index)];
  auto& entry = state->har.entries[static_cast<std::size_t>(resource_index)];
  entry.connection_id = conn->record.id;
  entry.server_address = conn->record.connected_address;
  entry.asn = conn->service != nullptr ? conn->service->asn : 0;

  if (!conn->alive || !conn->endpoint.open()) {
    if (!retry_resource(state, resource_index)) {
      complete_resource(state, resource_index, false,
                        "connection closed before request");
    }
    return;
  }
  auto stream_id = conn->h2->submit_request(
      server::make_get_request(res.hostname, res.path), true);
  if (!stream_id.ok()) {
    if (!retry_resource(state, resource_index)) {
      complete_resource(state, resource_index, false,
                        stream_id.error().message);
    }
    return;
  }
  conn->streams[*stream_id] = {resource_index, coalesced};
  if (conn->h2->has_output() && conn->endpoint.open()) {
    conn->endpoint.send(conn->h2->take_output());
  }

  if (!degradation_.enabled) return;
  // Request watchdog: if this attempt is still pending when it fires, the
  // stream is cancelled (RST_STREAM/CANCEL) and the resource retried.
  const int attempt = state->attempts[static_cast<std::size_t>(resource_index)];
  std::weak_ptr<LiveConnection> weak_conn = conn;
  auto weak_state = std::weak_ptr<LoadState>(state);
  const std::uint32_t sid = *stream_id;
  network_.simulator().schedule(
      degradation_.request_timeout,
      [this, weak_state, weak_conn, sid, resource_index, attempt]() {
        auto state = weak_state.lock();
        auto conn = weak_conn.lock();
        if (!state || !conn || state->finished) return;
        auto it = conn->streams.find(sid);
        if (it == conn->streams.end() || it->second.resource != resource_index) {
          return;
        }
        const auto idx = static_cast<std::size_t>(resource_index);
        if (state->resource_done[idx] || state->attempts[idx] != attempt) {
          return;
        }
        ++state->result.robustness.request_timeouts;
        const bool coalesced = it->second.coalesced;
        conn->streams.erase(it);
        if (conn->alive && conn->endpoint.open()) {
          // analyze:allow(error-discard): best-effort cancel of a stream
          // that already timed out; a failed RST_STREAM changes nothing
          (void)conn->h2->submit_rst_stream(sid, h2::ErrorCode::kCancel);
          if (conn->h2->has_output()) {
            conn->endpoint.send(conn->h2->take_output());
          }
        }
        if (coalesced) {
          add_avoid(state, state->page.resources[idx].hostname,
                    conn->record.sni);
        }
        if (!retry_resource(state, resource_index)) {
          complete_resource(state, resource_index, false,
                            "request timeout for " +
                                state->page.resources[idx].hostname);
        }
      });
}

void WireClient::complete_resource(std::shared_ptr<LoadState> state,
                                   int resource_index, bool success,
                                   const std::string& error) {
  const auto idx = static_cast<std::size_t>(resource_index);
  if (state->finished || state->resource_done[idx]) return;
  state->resource_done[idx] = 1;
  auto& entry = state->har.entries[idx];
  // Receive phase ends now; fold total elapsed into the waterfall.
  auto elapsed = network_.simulator().now() - entry.start;
  auto accounted = entry.timings.dns + entry.timings.connect + entry.timings.ssl;
  if (elapsed > accounted) {
    entry.timings.wait = elapsed - accounted;
  }
  if (!success) {
    state->har.success = false;
    state->result.errors.push_back(error);
  }
  ++state->completed;
  // Children become dispatchable after their parent's CPU-discovery delay.
  for (std::size_t i = 0; i < state->page.resources.size(); ++i) {
    const web::Resource& res = state->page.resources[i];
    if (res.parent == resource_index) {
      const int child = static_cast<int>(i);
      if (success) {
        network_.simulator().schedule(
            Duration::millis(res.discovery_cpu_ms), [this, state, child]() {
              if (state->finished) return;
              dispatch(state, child, false);
            });
      } else {
        // Parent failed: the child is never discovered.
        complete_resource(state, child, false, "parent failed");
      }
    }
  }
  maybe_finish(state);
}

void WireClient::maybe_finish(std::shared_ptr<LoadState> state) {
  if (state->finished ||
      state->completed < state->page.resources.size()) {
    return;
  }
  finish_load(state, true);
}

void WireClient::finish_load(std::shared_ptr<LoadState> state, bool complete) {
  if (state->finished) return;
  state->finished = true;
  state->result.complete = complete;
  state->result.har = state->har;
  // Drain: close what is still open (reaping the netsim connection state)
  // and release this load from active_ so long-lived clients do not
  // accumulate finished loads.
  for (auto& conn : state->pool) {
    if (conn->alive && conn->endpoint.open()) {
      conn->endpoint.close("load complete");
    }
    conn->alive = false;
  }
  std::erase(active_, state);
  if (state->done) state->done(state->result);
}

}  // namespace origin::browser
