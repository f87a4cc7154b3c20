#include "serve/session.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "codec/backend.hpp"
#include "core/rate_control.hpp"
#include "core/streaming_engine.hpp"
#include "hw/pipeline_spec.hpp"

namespace swc::serve {

const ServeMetricIds& ServeMetricIds::get() {
  using telemetry::MetricKind;
  using telemetry::Registry;
  static const ServeMetricIds ids = {
      Registry::metric("serve.sessions_opened", MetricKind::Counter, "sessions"),
      Registry::metric("serve.sessions_closed", MetricKind::Counter, "sessions"),
      Registry::metric("serve.sessions_rejected", MetricKind::Counter, "sessions"),
      Registry::metric("serve.sessions_rejected_capacity", MetricKind::Counter, "sessions"),
      Registry::metric("serve.frames_accepted", MetricKind::Counter, "frames"),
      Registry::metric("serve.frames_completed", MetricKind::Counter, "frames"),
      Registry::metric("serve.frames_rejected_busy", MetricKind::Counter, "frames"),
      Registry::metric("serve.frames_rejected_shutdown", MetricKind::Counter, "frames"),
      Registry::metric("serve.frames_bad", MetricKind::Counter, "frames"),
      Registry::metric("serve.frames_orphaned", MetricKind::Counter, "frames"),
      Registry::metric("serve.read_pauses", MetricKind::Counter, "pauses"),
      Registry::metric("serve.parked_frames", MetricKind::Gauge, "frames"),
      Registry::metric("serve.frame_latency", MetricKind::Histogram, "ns"),
  };
  return ids;
}

SessionManager::SessionManager(EventLoop& loop, runtime::FrameServer& engine, ServeLimits limits)
    : loop_(loop), engine_(engine), limits_(limits) {}

void SessionManager::count(telemetry::MetricId id, std::uint64_t delta) {
  swc::MutexLock lock(metrics_mutex_);
  metrics_.add(id, delta);
}

telemetry::Snapshot SessionManager::metrics() const {
  swc::MutexLock lock(metrics_mutex_);
  return metrics_;
}

void SessionManager::adopt_socket(int fd) {
  const std::uint64_t id = next_conn_id_++;
  Session session;
  session.conn = std::make_unique<Connection>(
      loop_, fd, id, *this,
      Connection::Options{limits_.max_payload, limits_.write_buffer_cap, 64 * 1024});
  sessions_.emplace(id, std::move(session));
}

void SessionManager::close_all(const char* reason) {
  for (auto& [id, session] : sessions_) session.conn->close(reason, /*immediately=*/true);
}

void SessionManager::send_message(Session& session, MsgType type, std::uint64_t seq,
                                  std::span<const std::uint8_t> payload) {
  session.conn->send(encode_message(type, session.stream_id, seq, payload));
}

void SessionManager::protocol_error(Session& session, ErrorCode code, const std::string& text) {
  const auto payload = encode_payload(ErrorPayload{code, text});
  send_message(session, MsgType::Error, 0, payload);
  session.conn->close("protocol-error");
}

void SessionManager::on_message(Connection& conn, Message&& msg) {
  loop_.assert_on_loop_thread();  // Handler override: re-establish loop_role
  const auto it = sessions_.find(conn.id());
  if (it == sessions_.end()) return;  // racing a close; drop
  Session& session = it->second;

  switch (msg.header.type) {
    case MsgType::Hello:
      handle_hello(session, msg);
      return;
    case MsgType::SubmitFrame:
      handle_submit(session, std::move(msg));
      return;
    case MsgType::Stats:
      handle_stats(session, msg);
      return;
    case MsgType::Goodbye:
      handle_goodbye(session);
      return;
    default:
      // Server-to-client types arriving at the server are a violation.
      protocol_error(session, ErrorCode::ProtocolViolation,
                     std::string("unexpected message type ") + to_string(msg.header.type));
      return;
  }
}

void SessionManager::handle_hello(Session& session, const Message& msg) {
  if (session.state != State::AwaitingHello) {
    protocol_error(session, ErrorCode::ProtocolViolation, "duplicate HELLO");
    return;
  }
  const auto hello = decode_hello(msg.payload);
  if (!hello) {
    protocol_error(session, ErrorCode::ProtocolViolation, "malformed HELLO payload");
    return;
  }
  // Admission control: a full server refuses new streams loudly rather than
  // letting them degrade the admitted ones.
  if (active_sessions_.load(std::memory_order_relaxed) >= limits_.max_sessions) {
    count(ServeMetricIds::get().sessions_rejected);
    const auto payload = encode_payload(ErrorPayload{ErrorCode::ServerFull, "max sessions"});
    send_message(session, MsgType::Error, 0, payload);
    session.conn->close("admission-rejected");
    return;
  }

  core::EngineConfig config;
  config.spec = {hello->width, hello->height, hello->window};
  config.codec.threshold = hello->threshold;
  // Backend selection: empty keeps the engine default; anything else must be
  // a registered codec backend, refused loudly so a typo does not silently
  // fall back to Haar.
  if (!hello->backend.empty()) {
    if (!codec::BackendRegistry::contains(hello->backend)) {
      count(ServeMetricIds::get().sessions_rejected);
      const auto payload = encode_payload(
          ErrorPayload{ErrorCode::BadBackend, "unknown codec backend: " + hello->backend});
      send_message(session, MsgType::Error, 0, payload);
      session.conn->close("bad-backend");
      return;
    }
    config.backend = hello->backend;
  }
  std::optional<core::RateControlConfig> rate;
  if (hello->rate_mode != RateMode::None) {
    core::RateControlConfig rc;
    rc.mode = hello->rate_mode == RateMode::BitsPerPixel ? core::RateControlMode::BitsPerPixel
                                                         : core::RateControlMode::Mse;
    rc.target = static_cast<double>(hello->rate_target_milli) / 1000.0;
    rc.initial_threshold = hello->threshold;
    rate = rc;
  } else if (limits_.default_rate.has_value()) {
    // Server-side preset for clients that did not negotiate a rate target.
    rate = limits_.default_rate;
  }
  try {
    config.validate();
    if (rate.has_value()) rate->validate();
  } catch (const std::exception& e) {
    count(ServeMetricIds::get().sessions_rejected);
    const auto payload = encode_payload(ErrorPayload{ErrorCode::BadGeometry, e.what()});
    send_message(session, MsgType::Error, 0, payload);
    session.conn->close("bad-geometry");
    return;
  }

  // Cost-based admission: trial-add this pipeline to the composed design and
  // keep it only if the whole design still fits the configured part. The
  // rejection is wire-visible with the binding constraint named, so a client
  // can tell "the part is out of BRAM" from "too many sessions".
  if (limits_.device.has_value()) {
    const auto member = planner_.add(hw::PipelineSpec::from_engine(config));
    const auto fit = planner_.fit(*limits_.device);
    if (!fit.fits) {
      planner_.remove(member);
      count(ServeMetricIds::get().sessions_rejected);
      count(ServeMetricIds::get().sessions_rejected_capacity);
      const auto cost = planner_.cost();
      std::string detail = "capacity: " +
                           std::string(resources::constraint_name(fit.binding_constraint)) +
                           " over budget on " + limits_.device->name + " (" +
                           std::to_string(planner_.size()) + " admitted, " +
                           std::to_string(cost.luts) + "/" + std::to_string(limits_.device->luts) +
                           " luts, " + std::to_string(cost.bram18k) + "/" +
                           std::to_string(limits_.device->bram18k) + " bram18k)";
      const auto payload = encode_payload(ErrorPayload{ErrorCode::ServerFull, detail});
      send_message(session, MsgType::Error, 0, payload);
      session.conn->close("capacity-rejected");
      return;
    }
    session.planner_member = member;
  }

  // shard_hint = connection id: all streams of one session (and, with id
  // reuse, successive sessions of a reconnecting client) co-locate on one
  // runtime shard, sharing its arena and cache warmth.
  session.stream_id = engine_.open_stream({.name = hello->name.empty()
                                               ? "conn-" + std::to_string(session.conn->id())
                                               : hello->name,
                                           .kind = runtime::EngineKind::Compressed,
                                           .engine = config,
                                           .keep_output = false,
                                           .rate = rate,
                                           .shard_hint = session.conn->id()});
  session.state = State::Active;
  session.qos = hello->qos;
  session.width = hello->width;
  session.height = hello->height;
  session.max_inflight = hello->qos == QosTier::Realtime ? limits_.realtime_max_inflight
                                                         : limits_.bulk_max_inflight;
  active_sessions_.fetch_add(1, std::memory_order_release);
  count(ServeMetricIds::get().sessions_opened);
  send_message(session, MsgType::HelloAck, 0, {});
}

void SessionManager::handle_submit(Session& session, Message&& msg) {
  if (session.state != State::Active || session.goodbye) {
    protocol_error(session, ErrorCode::ProtocolViolation, "SUBMIT_FRAME before HELLO");
    return;
  }
  if (msg.header.stream_id != session.stream_id) {
    protocol_error(session, ErrorCode::StreamMismatch,
                   "frame for stream " + std::to_string(msg.header.stream_id));
    return;
  }
  const std::size_t expected =
      static_cast<std::size_t>(session.width) * static_cast<std::size_t>(session.height);
  if (msg.payload.size() != expected) {
    // Wire-visible per-frame failure; framing is intact so the session lives.
    count(ServeMetricIds::get().frames_bad);
    const auto payload = encode_payload(FrameDonePayload{FrameStatus::BadFrame, 0, 0});
    send_message(session, MsgType::FrameDone, msg.header.seq, payload);
    return;
  }

  image::ImageU8 frame(session.width, session.height, std::move(msg.payload));

  // Bulk keeps strict FIFO: while older frames are parked, later ones park
  // behind them rather than jumping the engine queue.
  if (session.qos == QosTier::Bulk &&
      (!session.parked.empty() || session.inflight >= session.max_inflight)) {
    session.parked.push_back({msg.header.seq, std::move(frame)});
    update_backpressure(session);
    return;
  }
  if (session.qos == QosTier::Realtime && session.inflight >= session.max_inflight) {
    count(ServeMetricIds::get().frames_rejected_busy);
    const auto payload = encode_payload(FrameDonePayload{FrameStatus::RejectedBusy, 0, 0});
    send_message(session, MsgType::FrameDone, msg.header.seq, payload);
    return;
  }

  dispatch_frame(session, msg.header.seq, std::move(frame));
  // Pause eagerly once the in-flight cap is reached (or the frame parked)
  // instead of waiting for the next frame to pile up.
  update_backpressure(session);
}

bool SessionManager::dispatch_frame(Session& session, std::uint64_t seq, image::ImageU8 frame) {
  // Non-destructive queue-full check for the bulk tier: submit_frame consumes
  // the image even when it rejects, so a frame that must survive to be parked
  // can never be offered to a full queue. The probe is per stream — it looks
  // at the home shard this session's stream is pinned to, not the whole
  // pool, because only that shard's budget gates the submit. It cannot race
  // another producer — every engine submission happens on this loop thread
  // (workers only pop, so the depth can only shrink underneath us, which at
  // worst parks a frame one completion early).
  if (session.qos == QosTier::Bulk &&
      engine_.queue_depth_for(session.stream_id) >=
          engine_.queue_capacity_for(session.stream_id)) {
    session.parked.push_front({seq, std::move(frame)});
    return false;
  }
  const std::uint64_t conn_id = session.conn->id();
  // Always Reject at the engine: the reactor can never block on the queue.
  // Bulk "blocking" is realized below by parking + pausing the socket.
  const auto receipt = engine_.submit_frame(
      session.stream_id, std::move(frame), runtime::SubmitPolicy::Reject,
      [this, conn_id, seq](runtime::FrameResult result) {
        // Worker thread: marshal onto the loop. The session may be gone by
        // then; on_engine_done handles the orphan case.
        result.frame_seq = seq;  // wire seq, not the engine's internal one
        loop_.post([this, conn_id, result = std::move(result)]() mutable {
          loop_.assert_on_loop_thread();  // posted closure: re-establish loop_role
          on_engine_done(conn_id, std::move(result));
        });
      });
  if (receipt.accepted()) {
    ++session.inflight;
    count(ServeMetricIds::get().frames_accepted);
    return true;
  }
  if (receipt.error == runtime::SubmitError::ShuttingDown) {
    count(ServeMetricIds::get().frames_rejected_shutdown);
    const auto payload = encode_payload(FrameDonePayload{FrameStatus::RejectedShutdown, 0, 0});
    send_message(session, MsgType::FrameDone, seq, payload);
    return true;  // handled; nothing to park
  }
  if (receipt.error == runtime::SubmitError::UnknownStream) {
    // The engine stream was retired underneath this session (only possible
    // when something else drives FrameServer::close_stream on a shared
    // engine). Surface it on the wire and end the session — every later
    // frame would fail the same way.
    protocol_error(session, ErrorCode::UnknownStream,
                   "stream " + std::to_string(session.stream_id) + " is closed");
    return true;
  }
  // Queue full. For realtime this is the expected fail-fast path; for bulk
  // it can only happen if some other thread shares the engine's pool (e.g.
  // striped submissions through Server::engine()) — the frame was consumed,
  // so answer rejected-busy on the wire rather than dropping it silently.
  count(ServeMetricIds::get().frames_rejected_busy);
  const auto payload = encode_payload(FrameDonePayload{FrameStatus::RejectedBusy, 0, 0});
  send_message(session, MsgType::FrameDone, seq, payload);
  return true;
}

void SessionManager::update_backpressure(Session& session) {
  // Realtime fails fast on the wire; it is never throttled via the socket.
  if (session.qos == QosTier::Realtime) return;
  const auto& ids = ServeMetricIds::get();
  if (!session.parked.empty()) {
    {
      swc::MutexLock lock(metrics_mutex_);
      metrics_.note_max(ids.parked_frames, session.parked.size());
    }
    // Register for retry regardless of pause state: a session already paused
    // at its in-flight cap can still park frames from an earlier read chunk.
    const std::uint64_t id = session.conn->id();
    if (std::find(parked_sessions_.begin(), parked_sessions_.end(), id) ==
        parked_sessions_.end()) {
      parked_sessions_.push_back(id);
    }
  }
  const bool should_pause =
      !session.parked.empty() || session.inflight >= session.max_inflight;
  if (should_pause && !session.paused_by_backpressure) {
    session.paused_by_backpressure = true;
    session.conn->pause_reads();
    count(ids.read_pauses);
  } else if (!should_pause && session.paused_by_backpressure) {
    session.paused_by_backpressure = false;
    session.conn->resume_reads();
  }
}

void SessionManager::drain_parked() {
  // A completion freed queue and/or in-flight capacity; retry parked bulk
  // frames in arrival order across sessions.
  std::size_t i = 0;
  while (i < parked_sessions_.size()) {
    const auto it = sessions_.find(parked_sessions_[i]);
    if (it == sessions_.end()) {
      parked_sessions_.erase(parked_sessions_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    Session& session = it->second;
    bool progressed = true;
    while (progressed && !session.parked.empty() &&
           session.inflight < session.max_inflight) {
      ParkedFrame parked = std::move(session.parked.front());
      session.parked.pop_front();
      progressed = dispatch_frame(session, parked.seq, std::move(parked.frame));
      if (!progressed) break;  // queue still full; frame re-parked by dispatch
    }
    update_backpressure(session);
    maybe_finish_goodbye(session);
    if (session.parked.empty()) {
      parked_sessions_.erase(parked_sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void SessionManager::on_engine_done(std::uint64_t conn_id, runtime::FrameResult result) {
  const auto& ids = ServeMetricIds::get();
  const auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) {
    // Teardown with in-flight frames: the stream's stats were still counted
    // by the engine; the wire response just has nowhere to go.
    count(ids.frames_orphaned);
    drain_parked();
    return;
  }
  Session& session = it->second;
  --session.inflight;
  {
    swc::MutexLock lock(metrics_mutex_);
    metrics_.add(ids.frames_completed, 1);
    metrics_.note_hist(ids.frame_latency, result.latency_ns);
  }
  const std::uint64_t bits =
      result.stats.metrics.sum(core::EngineMetricIds::get().payload_bits);
  const auto payload =
      encode_payload(FrameDonePayload{FrameStatus::Ok, result.latency_ns, bits});
  send_message(session, MsgType::FrameDone, result.frame_seq, payload);
  update_backpressure(session);
  maybe_finish_goodbye(session);
  drain_parked();
}

std::string SessionManager::metrics_json() const {
  telemetry::Snapshot merged = metrics();
  merged.merge(engine_.stats().metrics);
  return telemetry::to_json(merged);
}

void SessionManager::handle_stats(Session& session, const Message& msg) {
  const std::string json = metrics_json();
  send_message(session, MsgType::StatsReply, msg.header.seq,
               {reinterpret_cast<const std::uint8_t*>(json.data()), json.size()});
}

void SessionManager::handle_goodbye(Session& session) {
  session.goodbye = true;
  maybe_finish_goodbye(session);
}

void SessionManager::maybe_finish_goodbye(Session& session) {
  if (session.goodbye && session.inflight == 0 && session.parked.empty() &&
      !session.conn->closing()) {
    session.conn->close("goodbye");  // flushes queued FRAME_DONEs first
  }
}

void SessionManager::on_connection_closed(std::uint64_t conn_id, const char* /*reason*/) {
  loop_.assert_on_loop_thread();  // Handler override: re-establish loop_role
  const auto it = sessions_.find(conn_id);
  if (it == sessions_.end()) return;
  if (it->second.state == State::Active) {
    active_sessions_.fetch_sub(1, std::memory_order_release);
    count(ServeMetricIds::get().sessions_closed);
    // Retire the engine stream with the session — one connection is one
    // stream, so an unclosed stream here is a leak (the slot table would
    // grow one entry per connection for the life of the server). In-flight
    // frames still complete: their workers hold the StreamContext and flush
    // its telemetry; they just report as orphans on this side.
    engine_.close_stream(it->second.stream_id);
    // Release the session's pipeline from the composed design so its
    // LUT/BRAM/interconnect share is available to the next HELLO.
    if (it->second.planner_member != 0) planner_.remove(it->second.planner_member);
  }
  // Parked frames die with the deque (peer is gone, nobody to respond to).
  sessions_.erase(it);
}

}  // namespace swc::serve
