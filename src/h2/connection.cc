#include "h2/connection.h"

#include <algorithm>

namespace origin::h2 {

using origin::util::Bytes;
using origin::util::make_error;
using origin::util::Result;
using origin::util::Status;

Connection::Connection(Role role, Origin initial_origin,
                       Settings local_settings)
    : role_(role),
      local_settings_(local_settings),
      encoder_(Settings{}.header_table_size),
      decoder_(local_settings.header_table_size),
      parser_(local_settings.max_frame_size),
      origin_set_(std::move(initial_origin)),
      next_stream_id_(role == Role::kClient ? 1 : 2),
      send_window_(Settings{}.initial_window_size),
      recv_window_(local_settings.initial_window_size) {
  // Connection preface: the client sends the magic octets; both sides then
  // send their initial SETTINGS (RFC 9113 §3.4).
  if (role_ == Role::kClient) {
    output_ = util::from_string(kClientPreface);
  }
  SettingsFrame settings;
  settings.settings = local_settings_.diff_from_defaults();
  enqueue(Frame{settings});
  preface_sent_ = true;
  if (role_ == Role::kClient) {
    // Sensitive request fields are never indexed.
    encoder_.add_sensitive_name("authorization");
    encoder_.add_sensitive_name("cookie");
  }
}

void Connection::enqueue(const Frame& frame) {
  Bytes wire = serialize_frame(frame);
  // analyze:allow(hot-transitive): the output queue is the connection's
  // wire-bytes hand-off; frames append until take_output() drains it, and
  // pre-reserving would require serializing every frame twice
  output_.insert(output_.end(), wire.begin(), wire.end());
}

Bytes Connection::take_output() { return std::exchange(output_, {}); }

Stream* Connection::find_stream(std::uint32_t id) {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : &it->second;
}

std::size_t Connection::active_stream_count() const {
  return static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(),
                    [](const auto& kv) { return !kv.second.closed(); }));
}

std::uint64_t Connection::frames_received(FrameType type) const {
  auto it = frame_counts_.find(type);
  return it == frame_counts_.end() ? 0 : it->second;
}

Stream& Connection::ensure_stream(std::uint32_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    it = streams_
             .emplace(id, Stream(id, remote_settings_.initial_window_size,
                                 local_settings_.initial_window_size))
             .first;
  }
  return it->second;
}

Status Connection::connection_error(ErrorCode code, std::string message) {
  failed_ = true;
  GoAwayFrame goaway;
  goaway.last_stream_id = highest_peer_stream_;
  goaway.error = code;
  goaway.debug_data = message;
  enqueue(Frame{goaway});
  return make_error(std::move(message));
}

Result<std::uint32_t> Connection::submit_request(
    const hpack::HeaderList& headers, bool end_stream) {
  if (role_ != Role::kClient) {
    return make_error("h2: submit_request on server connection");
  }
  if (failed_) return make_error("h2: connection failed");
  if (goaway_received_) {
    return make_error("h2: connection is draining (GOAWAY received)");
  }
  if (active_stream_count() >= remote_settings_.max_concurrent_streams) {
    return make_error("h2: MAX_CONCURRENT_STREAMS reached");
  }
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;
  Stream& stream = ensure_stream(id);
  if (auto s = stream.apply(StreamEvent::kSendHeaders); !s.ok()) return s.error();
  if (end_stream) {
    if (auto s = stream.apply(StreamEvent::kSendEndStream); !s.ok()) {
      return s.error();
    }
  }
  HeadersFrame frame;
  frame.stream_id = id;
  frame.header_block = encoder_.encode(headers);
  frame.end_stream = end_stream;
  enqueue(Frame{std::move(frame)});
  return id;
}

Status Connection::submit_response(std::uint32_t stream_id,
                                   const hpack::HeaderList& headers,
                                   bool end_stream) {
  if (role_ != Role::kServer) {
    return make_error("h2: submit_response on client connection");
  }
  Stream* stream = find_stream(stream_id);
  if (stream == nullptr) return make_error("h2: no such stream");
  if (auto s = stream->apply(StreamEvent::kSendHeaders); !s.ok()) return s;
  if (end_stream) {
    if (auto s = stream->apply(StreamEvent::kSendEndStream); !s.ok()) return s;
  }
  HeadersFrame frame;
  frame.stream_id = stream_id;
  frame.header_block = encoder_.encode(headers);
  frame.end_stream = end_stream;
  enqueue(Frame{std::move(frame)});
  return {};
}

Status Connection::submit_data(std::uint32_t stream_id,
                               std::span<const std::uint8_t> data,
                               bool end_stream) {
  Stream* stream = find_stream(stream_id);
  if (stream == nullptr) return make_error("h2: no such stream");
  if (!stream->can_send_data()) {
    return make_error("h2: stream not writable");
  }
  const auto n = static_cast<std::int64_t>(data.size());
  if (!send_window_.can_send(n) || !stream->send_window().can_send(n)) {
    return make_error("h2: flow-control window exhausted");
  }
  // Split into frames respecting the peer's MAX_FRAME_SIZE.
  const std::size_t max_chunk = remote_settings_.max_frame_size;
  std::size_t offset = 0;
  do {
    std::size_t chunk = std::min(max_chunk, data.size() - offset);
    DataFrame frame;
    frame.stream_id = stream_id;
    frame.data.assign(data.begin() + static_cast<std::ptrdiff_t>(offset),
                      data.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    frame.end_stream = end_stream && (offset + chunk == data.size());
    enqueue(Frame{std::move(frame)});
    offset += chunk;
  } while (offset < data.size());
  // analyze:allow(error-discard): both consumes follow the available()
  // check that sized this chunk, so neither can report exhaustion here
  (void)send_window_.consume(n);
  (void)stream->send_window().consume(n);  // analyze:allow(error-discard): sized by the same available() check as the connection window above
  if (end_stream) {
    if (auto s = stream->apply(StreamEvent::kSendEndStream); !s.ok()) return s;
  }
  return {};
}

Status Connection::submit_origin(const std::vector<std::string>& origins) {
  // RFC 8336 §2: the ORIGIN frame is sent by servers, on stream 0.
  if (role_ != Role::kServer) {
    return make_error("h2: ORIGIN frame is server-only");
  }
  OriginFrame frame;
  frame.origins = origins;
  advertised_origins_ = origins;
  enqueue(Frame{std::move(frame)});
  return {};
}

Status Connection::submit_secondary_certificate(
    const tls::Certificate& cert) {
  if (role_ != Role::kServer) {
    return make_error("h2: CERTIFICATE frame is server-only");
  }
  UnknownFrame frame;
  frame.type = kCertificateFrameType;
  frame.stream_id = 0;
  frame.payload = encode_certificate_payload(cert);
  enqueue(Frame{std::move(frame)});
  return {};
}

Status Connection::submit_altsvc(std::uint32_t stream_id,
                                 const std::string& origin,
                                 const std::string& field_value) {
  if (role_ != Role::kServer) return make_error("h2: ALTSVC is server-only");
  AltSvcFrame frame;
  frame.stream_id = stream_id;
  frame.origin = origin;
  frame.field_value = field_value;
  enqueue(Frame{std::move(frame)});
  return {};
}

void Connection::submit_ping(std::uint64_t opaque) {
  PingFrame frame;
  frame.opaque = opaque;
  enqueue(Frame{frame});
}

void Connection::submit_goaway(ErrorCode error, const std::string& debug) {
  GoAwayFrame frame;
  frame.last_stream_id = highest_peer_stream_;
  frame.error = error;
  frame.debug_data = debug;
  enqueue(Frame{std::move(frame)});
}

Status Connection::submit_rst_stream(std::uint32_t stream_id, ErrorCode error) {
  Stream* stream = find_stream(stream_id);
  if (stream == nullptr) return make_error("h2: no such stream");
  if (auto s = stream->apply(StreamEvent::kSendRstStream); !s.ok()) return s;
  RstStreamFrame frame;
  frame.stream_id = stream_id;
  frame.error = error;
  enqueue(Frame{frame});
  return {};
}

Status Connection::submit_window_update(std::uint32_t stream_id,
                                        std::uint32_t increment) {
  if (stream_id == 0) {
    if (auto s = recv_window_.replenish(increment); !s.ok()) return s;
  } else {
    Stream* stream = find_stream(stream_id);
    if (stream == nullptr) return make_error("h2: no such stream");
    if (auto s = stream->recv_window().replenish(increment); !s.ok()) return s;
  }
  WindowUpdateFrame frame;
  frame.stream_id = stream_id;
  frame.increment = increment;
  enqueue(Frame{frame});
  return {};
}

Status Connection::receive(std::span<const std::uint8_t> bytes) {
  if (failed_) return make_error("h2: connection failed");
  // Servers must first consume the client preface magic.
  if (role_ == Role::kServer && !preface_received_) {
    // Consume as much of the preface as is present in this chunk.
    std::size_t need = kClientPreface.size() - preface_offset_;
    std::size_t take = std::min(need, bytes.size());
    for (std::size_t i = 0; i < take; ++i) {
      if (bytes[i] != static_cast<std::uint8_t>(
                          kClientPreface[preface_offset_ + i])) {
        return connection_error(ErrorCode::kProtocolError,
                                "h2: bad client preface");
      }
    }
    preface_offset_ += take;
    if (preface_offset_ == kClientPreface.size()) preface_received_ = true;
    bytes = bytes.subspan(take);
    if (bytes.empty()) return {};
  }
  auto frames = parser_.feed(bytes);
  if (!frames.ok()) {
    return connection_error(ErrorCode::kFrameSizeError, frames.error().message);
  }
  for (Frame& frame : frames.value()) {
    frame_counts_[frame_type_of(frame)]++;
    ++total_frames_received_;
    if (auto s = handle_frame(std::move(frame)); !s.ok()) return s;
  }
  return {};
}

namespace {

// RFC 9113 §10.5.1: a field's accounted size is name + value + 32 octets of
// per-entry overhead; SETTINGS_MAX_HEADER_LIST_SIZE bounds the sum.
std::uint64_t header_list_size(const hpack::HeaderList& headers) {
  std::uint64_t total = 0;
  for (const auto& header : headers) {
    total += header.name.size() + header.value.size() + 32;
  }
  return total;
}

}  // namespace

Status Connection::check_header_list_size(const hpack::HeaderList& headers) {
  if (header_list_size(headers) > local_settings_.max_header_list_size) {
    // ENHANCE_YOUR_CALM rather than PROTOCOL_ERROR: the peer is burning our
    // memory budget, not breaking framing (header-bomb defense).
    return connection_error(ErrorCode::kEnhanceYourCalm,
                            "h2: header list exceeds "
                            "SETTINGS_MAX_HEADER_LIST_SIZE");
  }
  return {};
}

Status Connection::handle_frame(Frame frame) {
  // While a header block is in flight, only CONTINUATION on the same
  // stream is legal (RFC 9113 §6.10).
  if (pending_headers_ &&
      frame_type_of(frame) != FrameType::kContinuation) {
    return connection_error(ErrorCode::kProtocolError,
                            "h2: expected CONTINUATION");
  }
  return std::visit(
      [this](auto&& f) -> Status {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, SettingsFrame>) {
          if (f.ack) return {};
          if (auto s = remote_settings_.apply(f.settings); !s.ok()) {
            return connection_error(ErrorCode::kProtocolError,
                                    s.error().message);
          }
          encoder_.set_max_table_size(remote_settings_.header_table_size);
          SettingsFrame ack;
          ack.ack = true;
          enqueue(Frame{ack});
          if (callbacks_.on_remote_settings) callbacks_.on_remote_settings(f);
          return {};
        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          if (role_ == Role::kServer) {
            // New client stream ids must increase monotonically.
            if (f.stream_id % 2 == 0) {
              return connection_error(ErrorCode::kProtocolError,
                                      "h2: client stream id must be odd");
            }
            if (f.stream_id < highest_peer_stream_ &&
                streams_.find(f.stream_id) == streams_.end()) {
              return connection_error(ErrorCode::kProtocolError,
                                      "h2: stream id not monotonic");
            }
          }
          highest_peer_stream_ = std::max(highest_peer_stream_, f.stream_id);
          Stream& stream = ensure_stream(f.stream_id);
          if (auto s = stream.apply(StreamEvent::kRecvHeaders); !s.ok()) {
            return connection_error(ErrorCode::kProtocolError,
                                    s.error().message);
          }
          if (!f.end_headers) {
            pending_headers_ = PendingHeaderBlock{
                f.stream_id, std::move(f.header_block), f.end_stream};
            return {};
          }
          auto headers = decoder_.decode(f.header_block);
          if (!headers.ok()) {
            return connection_error(ErrorCode::kCompressionError,
                                    headers.error().message);
          }
          if (auto s = check_header_list_size(headers.value()); !s.ok()) {
            return s;
          }
          if (f.end_stream) {
            if (auto s = stream.apply(StreamEvent::kRecvEndStream); !s.ok()) {
              return connection_error(ErrorCode::kProtocolError,
                                      s.error().message);
            }
          }
          if (callbacks_.on_headers) {
            callbacks_.on_headers(f.stream_id, headers.value(), f.end_stream);
          }
          return {};
        } else if constexpr (std::is_same_v<T, ContinuationFrame>) {
          if (!pending_headers_ || pending_headers_->stream_id != f.stream_id) {
            return connection_error(ErrorCode::kProtocolError,
                                    "h2: unexpected CONTINUATION");
          }
          pending_headers_->fragments.insert(pending_headers_->fragments.end(),
                                             f.header_block.begin(),
                                             f.header_block.end());
          // HPACK never inflates: compressed fragments at least as large as
          // the configured decoded-size limit cannot decode under it, so an
          // endless never-END_HEADERS CONTINUATION stream is cut off here
          // instead of accumulating fragments without bound (header bomb).
          if (pending_headers_->fragments.size() >
              local_settings_.max_header_list_size) {
            return connection_error(ErrorCode::kEnhanceYourCalm,
                                    "h2: continuation fragments exceed "
                                    "SETTINGS_MAX_HEADER_LIST_SIZE");
          }
          if (!f.end_headers) return {};
          PendingHeaderBlock block = std::move(*pending_headers_);
          pending_headers_.reset();
          auto headers = decoder_.decode(block.fragments);
          if (!headers.ok()) {
            return connection_error(ErrorCode::kCompressionError,
                                    headers.error().message);
          }
          if (auto s = check_header_list_size(headers.value()); !s.ok()) {
            return s;
          }
          Stream& stream = ensure_stream(block.stream_id);
          if (block.end_stream) {
            if (auto s = stream.apply(StreamEvent::kRecvEndStream); !s.ok()) {
              return connection_error(ErrorCode::kProtocolError,
                                      s.error().message);
            }
          }
          if (callbacks_.on_headers) {
            callbacks_.on_headers(block.stream_id, headers.value(),
                                  block.end_stream);
          }
          return {};
        } else if constexpr (std::is_same_v<T, DataFrame>) {
          Stream* stream = find_stream(f.stream_id);
          if (stream == nullptr || !stream->can_recv_data()) {
            return connection_error(ErrorCode::kStreamClosed,
                                    "h2: DATA on closed/unknown stream");
          }
          const auto n = static_cast<std::int64_t>(f.data.size());
          if (auto s = recv_window_.consume(n); !s.ok()) {
            return connection_error(ErrorCode::kFlowControlError,
                                    s.error().message);
          }
          if (auto s = stream->recv_window().consume(n); !s.ok()) {
            return connection_error(ErrorCode::kFlowControlError,
                                    s.error().message);
          }
          if (f.end_stream) {
            if (auto s = stream->apply(StreamEvent::kRecvEndStream); !s.ok()) {
              return connection_error(ErrorCode::kProtocolError,
                                      s.error().message);
            }
          }
          // Auto-replenish both windows (an application with an unbounded
          // receive buffer); keeps the simulation free of artificial
          // stalls while still accounting windows exactly.
          if (n > 0) {
            // analyze:allow(error-discard): replenish of an unbounded
            // receive buffer only fails past the 2^31-1 window cap, which
            // the auto-replenish scheme keeps constant by construction
            (void)recv_window_.replenish(n);
            (void)stream->recv_window().replenish(n);  // analyze:allow(error-discard): same constant-window argument as the connection-level replenish above
            WindowUpdateFrame conn_update;
            conn_update.stream_id = 0;
            conn_update.increment = static_cast<std::uint32_t>(n);
            enqueue(Frame{conn_update});
            if (!stream->closed()) {
              WindowUpdateFrame stream_update;
              stream_update.stream_id = f.stream_id;
              stream_update.increment = static_cast<std::uint32_t>(n);
              enqueue(Frame{stream_update});
            }
          }
          if (callbacks_.on_data) {
            callbacks_.on_data(f.stream_id, f.data, f.end_stream);
          }
          return {};
        } else if constexpr (std::is_same_v<T, OriginFrame>) {
          // RFC 8336 §2: clients apply it; servers MUST ignore it. Frames
          // on nonzero streams never parse as OriginFrame here because the
          // codec keys on type only — enforce stream 0 via construction
          // (OriginFrame has no stream id).
          if (role_ == Role::kClient) {
            origin_set_.apply_origin_frame(f.origins);
            if (callbacks_.on_origin_set_changed) {
              callbacks_.on_origin_set_changed(origin_set_);
            }
          }
          return {};
        } else if constexpr (std::is_same_v<T, AltSvcFrame>) {
          // RFC 7838 §4 validity rules; invalid frames are ignored.
          const bool valid = (f.stream_id == 0) != f.origin.empty();
          if (valid && callbacks_.on_altsvc) callbacks_.on_altsvc(f);
          return {};
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          if (!f.ack) {
            PingFrame ack;
            ack.ack = true;
            ack.opaque = f.opaque;
            enqueue(Frame{ack});
            if (callbacks_.on_ping) callbacks_.on_ping(f);
          }
          return {};
        } else if constexpr (std::is_same_v<T, GoAwayFrame>) {
          goaway_received_ = f;
          if (callbacks_.on_goaway) callbacks_.on_goaway(f);
          return {};
        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          Stream* stream = find_stream(f.stream_id);
          if (stream == nullptr) {
            // RST for an already-forgotten stream: ignore.
            return {};
          }
          if (auto s = stream->apply(StreamEvent::kRecvRstStream); !s.ok()) {
            return connection_error(ErrorCode::kProtocolError,
                                    s.error().message);
          }
          if (callbacks_.on_rst_stream) {
            callbacks_.on_rst_stream(f.stream_id, f.error);
          }
          return {};
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          if (f.stream_id == 0) {
            if (auto s = send_window_.replenish(f.increment); !s.ok()) {
              return connection_error(ErrorCode::kFlowControlError,
                                      s.error().message);
            }
          } else if (Stream* stream = find_stream(f.stream_id)) {
            if (auto s = stream->send_window().replenish(f.increment);
                !s.ok()) {
              return connection_error(ErrorCode::kFlowControlError,
                                      s.error().message);
            }
          }
          return {};
        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          return {};  // priority signal deprecated; accepted and ignored
        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          if (role_ == Role::kClient && !local_settings_.enable_push) {
            return connection_error(ErrorCode::kProtocolError,
                                    "h2: PUSH_PROMISE with push disabled");
          }
          Stream& promised = ensure_stream(f.promised_stream_id);
          if (auto s = promised.apply(StreamEvent::kRecvPushPromise); !s.ok()) {
            return connection_error(ErrorCode::kProtocolError,
                                    s.error().message);
          }
          return {};
        } else {  // UnknownFrame
          // CERTIFICATE extension frames (§6.5) are understood when they
          // arrive on stream 0 of a client connection.
          if (f.type == kCertificateFrameType && f.stream_id == 0 &&
              role_ == Role::kClient) {
            auto cert = decode_certificate_payload(f.payload);
            if (cert.ok()) {
              secondary_certificates_.push_back(cert.value());
              if (callbacks_.on_secondary_certificate) {
                callbacks_.on_secondary_certificate(cert.value());
              }
            }
            // Malformed extension payloads are dropped, never fatal.
            return {};
          }
          // RFC 9113 §4.1: implementations MUST ignore and discard frames
          // of unknown type. This is the rule the §6.7 middlebox broke.
          if (callbacks_.on_unknown_frame) callbacks_.on_unknown_frame(f);
          return {};
        }
      },
      std::move(frame));
}

}  // namespace origin::h2
