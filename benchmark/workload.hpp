#pragma once
// Shared vocabulary of the benchmark driver: the workload table, one record
// per frame sent, the call-span tracer, and the transport seam that lets one
// generator drive either the TCP serve path or the in-process runtime.
//
// Everything here runs on the generator thread unless stated otherwise.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/rate_control.hpp"
#include "core/streaming_engine.hpp"
#include "image/image.hpp"
#include "runtime/stats.hpp"
#include "serve/protocol.hpp"

namespace swc::bench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- workloads ---------------------------------------------------------------

enum class Path : std::uint8_t {
  Serve,   // TCP into an in-process serve::Server, bulk tier
  Engine,  // runtime::FrameServer::submit_frame, no sockets
};

struct StreamSpec {
  std::string backend;
  int threshold = 0;
  std::optional<core::RateControlConfig> rate;
};

struct Workload {
  std::string name;
  Path path = Path::Serve;
  std::size_t size = 0;  // square frames
  std::size_t window = 0;
  std::vector<StreamSpec> streams;
  double light_fps = 0.0;  // per stream, open loop
  double heavy_fps = 0.0;
  // Per stream; sizes the closed loop in frames, so that a run's frame
  // count (and with it the benchmark's own memory) does not depend on how
  // fast the host ran. About what the development host sustains.
  double closed_fps = 0.0;
  double limit_ms = 0.0;  // per-frame latency limit (ontime_fraction)

  [[nodiscard]] core::EngineConfig engine_config(std::size_t stream) const {
    core::EngineConfig config;
    config.spec = {size, size, window};
    config.codec.threshold = streams[stream].threshold;
    config.backend = streams[stream].backend;
    return config;
  }
};

// nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

// MSE 2.0 from T = 2: engine512's rate-controlled stream, and the
// controller replayed on every workload's frames for the per-layer
// core.rate_control.target_error_pct.
[[nodiscard]] core::RateControlConfig mse_rate_control();

inline constexpr std::size_t kFramesPerStream = 8;
inline constexpr std::size_t kClosedInflight = 2;  // frames in flight per stream
inline constexpr std::size_t kWorkers = 2;         // generator + loop + 2 workers = 4 cores
inline constexpr std::size_t kSetupReps = 7;

// --- per-frame records -------------------------------------------------------

enum class Phase : std::uint8_t { Setup, Warmup, Light, Heavy, Closed, ClosedTraced };
enum class Status : std::uint8_t { Pending, Ok, Rejected, Failed };

[[nodiscard]] const char* to_string(Phase phase) noexcept;

// Timestamps are steady-clock nanoseconds; 0 means "not reached".
struct FrameRecord {
  std::uint32_t instance = 0;  // server instance (setup repetition) that ran it
  std::uint32_t stream = 0;
  std::uint32_t frame = 0;  // index into the stream's input frames
  Phase phase = Phase::Setup;
  Status status = Status::Pending;
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;    // generator began handing the frame off
  std::int64_t handoff_ns = 0;  // last byte accepted by the kernel / submit_frame returned
  std::int64_t done_ns = 0;     // FRAME_DONE parsed / completion callback ran
  std::uint64_t server_ns = 0;  // FrameDonePayload::latency_ns / FrameResult::latency_ns
  std::uint64_t payload_bits = 0;
  std::uint64_t output_hash = 0;  // engine path: hash of the reconstruction
};

// Seq on the wire and span id of a record: its index + 1 (0 is never sent).
[[nodiscard]] inline std::uint64_t record_seq(std::size_t record) noexcept {
  return static_cast<std::uint64_t>(record) + 1;
}

// --- call spans ----------------------------------------------------------------

struct TraceSpan {
  const char* name = "";
  std::uint32_t tid = 0;  // stream index, or kReplayTid
  std::uint64_t id = 0;   // record_seq of the frame, 0 for replays
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

inline constexpr std::uint32_t kReplayTid = 100;

// Spans timed around calls into the program's layers from the benchmark's
// own code. Off in untraced runs: no clock reads, no stores. Names must be
// string literals. Per-frame call spans stop at kMaxSpans; the few replay
// spans are always kept.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 40000;

  bool on = false;

  void add(const char* name, std::uint32_t tid, std::uint64_t id, std::int64_t begin_ns,
           std::int64_t end_ns) {
    if (on && (tid == kReplayTid || spans_.size() < kMaxSpans)) {
      spans_.push_back({name, tid, id, begin_ns, end_ns});
    }
  }
  [[nodiscard]] const std::vector<TraceSpan>& spans() const noexcept { return spans_; }

 private:
  std::vector<TraceSpan> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t tid, std::uint64_t id)
      : tracer_(tracer.on ? &tracer : nullptr),
        name_(name),
        tid_(tid),
        id_(id),
        begin_ns_(tracer_ != nullptr ? now_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->add(name_, tid_, id_, begin_ns_, now_ns());
  }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint32_t tid_;
  std::uint64_t id_;
  std::int64_t begin_ns_;
};

// --- inputs and reference outputs ----------------------------------------------

// Offline single-thread CompressedEngine result for one frame.
struct Reference {
  std::uint64_t payload_bits = 0;
  std::uint64_t output_hash = 0;
  double mse = 0.0;
  int max_abs_error = 0;
};

struct StreamInputs {
  std::vector<image::ImageU8> frames;
  // Serve path: SUBMIT_FRAME per frame, encoded with stream id 0 and seq 0;
  // the transport patches both in place before sending.
  std::vector<std::vector<std::uint8_t>> wires;
  // One per frame for fixed-threshold streams; empty for a rate-controlled
  // stream, whose thresholds depend on the run (see replay_rate_stream).
  std::vector<Reference> refs;
  std::uint64_t input_hashes[kFramesPerStream] = {};
};

[[nodiscard]] std::uint64_t hash_pixels(const image::ImageU8& img) noexcept;

// Frames from image::make_places_like_set(size, size, 8, seed * 1000 + stream),
// their wire messages and every fixed-threshold reference, built in parallel
// before any clock starts.
[[nodiscard]] std::vector<StreamInputs> build_inputs(const Workload& w, std::uint64_t seed);

// Offline results of one stream's frames at any threshold, computed on
// first use. A rate controller fed from it makes the same decisions as a
// runtime::StreamContext, which feeds it image::mse(input, reconstruction).
class RateReplay {
 public:
  RateReplay(const Workload& w, std::size_t stream, const StreamInputs& in);

  [[nodiscard]] const Reference& at(std::uint32_t frame, int threshold);

 private:
  const StreamInputs& in_;
  core::CompressedEngine engine_;
  core::CompressedEngine::Scratch scratch_;
  std::map<std::pair<std::uint32_t, int>, Reference> memo_;
};

// Expected result of every completed frame of a rate-controlled stream:
// the stream's controller replayed over the frames each server instance
// completed, in submission order. Indexed like `records`; entries of other
// streams are left alone.
void replay_rate_stream(const Workload& w, std::size_t stream, RateReplay& replay,
                        const std::vector<FrameRecord>& records,
                        std::vector<const Reference*>& expected);

// --- transports ------------------------------------------------------------------

// What the server side counted so far (read between phases, never inside one).
struct ServerCounters {
  std::uint64_t completed = 0;  // serve.frames_completed / runtime frames_completed
  std::uint64_t rejected_busy = 0;
  std::uint64_t read_pauses = 0;
  std::uint64_t parked_frames_max = 0;
  runtime::RuntimeStatsSnapshot runtime;
};

class Transport {
 public:
  using DoneFn = std::function<void(std::size_t record)>;

  virtual ~Transport() = default;

  // Begin handing off records[record] (stream, frame and phase are set).
  virtual void issue(std::size_t record) = 0;
  // Make whatever progress is ready, reporting completed records; never
  // blocks (see poller.hpp for why the generator polls).
  virtual void poll() = 0;
  [[nodiscard]] virtual ServerCounters counters() = 0;
};

// Constructs the server (workers = kWorkers) and opens one stream per
// StreamSpec. `inputs` is mutable because the serve path patches ids into
// the pre-encoded wire messages.
[[nodiscard]] std::unique_ptr<Transport> make_serve_transport(
    const Workload& w, std::vector<StreamInputs>& inputs, std::vector<FrameRecord>& records,
    Tracer& tracer, Transport::DoneFn done);
[[nodiscard]] std::unique_ptr<Transport> make_engine_transport(
    const Workload& w, std::vector<StreamInputs>& inputs, std::vector<FrameRecord>& records,
    Tracer& tracer, Transport::DoneFn done);

}  // namespace swc::bench
