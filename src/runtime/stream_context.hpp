#pragma once
// Per-stream state for the multi-stream runtime. Each open stream owns its
// engine configuration, a const (reentrant) engine instance, and its
// accumulated counters. Counter updates are mutex-serialized per stream;
// frames of one stream may be in flight on several workers at once, which
// is safe because the engines' run_reentrant() keeps all scan state local.

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/config.hpp"
#include "core/rate_control.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "core/streaming_engine.hpp"
#include "image/image.hpp"
#include "image/metrics.hpp"
#include "runtime/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace swc::runtime {

enum class EngineKind : std::uint8_t {
  Traditional,  // raw line buffers (Fig. 1) — no codec, no reconstructed image
  Compressed,   // the paper's compressed architecture (Fig. 4)
};

struct StreamConfig {
  std::string name;
  EngineKind kind = EngineKind::Compressed;
  core::EngineConfig engine;
  // When false, the reconstructed frame is dropped after stats are taken
  // (saves a copy per frame in pure-throughput serving).
  bool keep_output = true;
  // Optional closed-loop rate control (compressed streams only): the stream
  // adapts the codec threshold frame to frame toward the configured
  // bits-per-pixel or MSE target instead of using engine.codec.threshold.
  std::optional<core::RateControlConfig> rate{};
};

class StreamContext {
 public:
  StreamContext(std::uint32_t id, StreamConfig config)
      : id_(id),
        config_(std::move(config)),
        traditional_(config_.engine.spec),
        compressed_(config_.engine),
        rate_enabled_(config_.rate.has_value()) {
    if (rate_enabled_) {
      swc::MutexLock lock(rate_mutex_);
      controller_.emplace(*config_.rate);
      rate_threshold_.store(controller_->threshold(), std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  // Process one frame; returns the reconstructed image (empty for the
  // traditional engine or keep_output = false) and the run stats. Const and
  // reentrant: any number of frames may run concurrently (each gets its own
  // stack-local engine scratch).
  [[nodiscard]] core::CompressedRunResult process(const image::ImageU8& frame) const {
    core::CompressedEngine::Scratch scratch;
    return process(frame, scratch);
  }

  // Scratch-reusing form for serialized callers: the FrameServer runs a
  // stream's frames strand-ordered (never two at once), so one
  // caller-held Scratch per stream makes the steady state allocation-free.
  [[nodiscard]] core::CompressedRunResult process(const image::ImageU8& frame,
                                                  core::CompressedEngine::Scratch& scratch) const {
    if (config_.kind == EngineKind::Traditional) {
      core::CompressedRunResult result;
      const std::size_t windows = traditional_.run_reentrant(
          frame, [](std::size_t, std::size_t, const core::WindowView&) {});
      result.stats.metrics.add(core::EngineMetricIds::get().windows, windows);
      return result;
    }
    core::CompressedRunResult result;
    if (rate_enabled_) {
      // Closed loop: run this frame at the controller's current threshold,
      // then feed the achieved rate/error back. Frames of one stream may be
      // in flight on several workers; each reads the actuation atomically
      // and observations are serialized under rate_mutex_, so concurrent
      // frames only ever see a slightly stale threshold, never a torn one.
      bitpack::ColumnCodecConfig codec = config_.engine.codec;
      codec.threshold = rate_threshold_.load(std::memory_order_relaxed);
      result = compressed_.run_with_codec(
          frame, codec, [](std::size_t, std::size_t, const core::WindowView&) {}, scratch);
      observe_rate(frame, result);
    } else {
      result = compressed_.run_with_codec(
          frame, config_.engine.codec, [](std::size_t, std::size_t, const core::WindowView&) {},
          scratch);
    }
    if (!config_.keep_output) {
      // Bank the buffer for the next frame instead of freeing it.
      scratch.recycle(std::move(result.reconstructed));
      result.reconstructed = image::ImageU8();
    }
    return result;
  }

  // The stream's reusable engine scratch. Only valid for callers that
  // serialize the stream's frames (the strand does); concurrent direct
  // callers must use the stack-local process() overload instead.
  [[nodiscard]] core::CompressedEngine::Scratch& strand_scratch() const noexcept {
    return scratch_;
  }

  // Threshold the next rate-controlled frame will run at (engine.codec
  // threshold when the stream has no controller). rate_enabled_ is const, so
  // this hot-path probe needs neither lock nor optional inspection.
  [[nodiscard]] int rate_threshold() const noexcept {
    return rate_enabled_ ? rate_threshold_.load(std::memory_order_relaxed)
                         : config_.engine.codec.threshold;
  }
  [[nodiscard]] bool rate_converged() const SWC_EXCLUDES(rate_mutex_) {
    if (!rate_enabled_) return false;
    swc::MutexLock lock(rate_mutex_);
    return controller_->converged();
  }

  // Returns this frame's per-stream sequence number.
  std::uint64_t note_submitted() SWC_EXCLUDES(mutex_) {
    swc::MutexLock lock(mutex_);
    return frames_submitted_++;
  }

  // Converts an optimistic note_submitted() into a rejection when the queue
  // refused the frame.
  void note_submit_failed() SWC_EXCLUDES(mutex_) {
    swc::MutexLock lock(mutex_);
    --frames_submitted_;
    ++frames_rejected_;
  }

  // Books one completed frame on this stream: counts, telemetry, latency.
  void note_completed(const core::RunStats& stats, std::size_t pixels,
                      std::uint64_t latency_ns) SWC_EXCLUDES(mutex_) {
    swc::MutexLock lock(mutex_);
    ++frames_completed_;
    pixels_processed_ += pixels;
    metrics_.merge(stats.metrics);
    latency_.note(latency_ns);
  }

  [[nodiscard]] StreamStatsSnapshot snapshot() const SWC_EXCLUDES(mutex_) {
    swc::MutexLock lock(mutex_);
    StreamStatsSnapshot snap;
    snap.id = id_;
    snap.name = config_.name;
    snap.frames_submitted = frames_submitted_;
    snap.frames_completed = frames_completed_;
    snap.frames_rejected = frames_rejected_;
    snap.pixels_processed = pixels_processed_;
    snap.metrics = metrics_;
    snap.latency = latency_;
    return snap;
  }

 private:
  void observe_rate(const image::ImageU8& frame, const core::CompressedRunResult& result) const
      SWC_EXCLUDES(rate_mutex_) {
    const auto& ids = core::EngineMetricIds::get();
    double achieved = 0.0;
    if (config_.rate->mode == core::RateControlMode::BitsPerPixel) {
      const auto bits = result.stats.metrics.sum(ids.payload_bits) +
                        result.stats.metrics.sum(ids.management_bits);
      achieved = static_cast<double>(bits) / static_cast<double>(frame.size());
    } else {
      achieved = image::mse(frame, result.reconstructed);
    }
    swc::MutexLock lock(rate_mutex_);
    rate_threshold_.store(controller_->observe(achieved), std::memory_order_relaxed);
  }

  const std::uint32_t id_;
  const StreamConfig config_;
  const core::TraditionalEngine traditional_;
  const core::CompressedEngine compressed_;

  // Reused across this stream's frames by strand-serialized callers only
  // (mutable: working memory, not logical state — see strand_scratch()).
  mutable core::CompressedEngine::Scratch scratch_;

  // Rate-control loop state. Mutable because process() is const/reentrant:
  // the controller is logically an observer bolted onto the stream, not part
  // of the frame computation. The hot path keys off the const rate_enabled_
  // flag (never the optional's engagement, which is guarded state) and reads
  // the actuation through the rate_threshold_ atomic mirror, so it skips the
  // mutex entirely; the controller itself is only touched under rate_mutex_.
  const bool rate_enabled_;
  mutable swc::Mutex rate_mutex_;
  mutable std::optional<core::RateController> controller_ SWC_GUARDED_BY(rate_mutex_);
  mutable std::atomic<int> rate_threshold_{0};

  mutable swc::Mutex mutex_;
  // Submission bookkeeping (control state: frames_submitted_ doubles as the
  // per-stream sequence allocator, so it stays a plain counter).
  std::uint64_t frames_submitted_ SWC_GUARDED_BY(mutex_) = 0;
  std::uint64_t frames_completed_ SWC_GUARDED_BY(mutex_) = 0;
  std::uint64_t frames_rejected_ SWC_GUARDED_BY(mutex_) = 0;
  std::uint64_t pixels_processed_ SWC_GUARDED_BY(mutex_) = 0;
  // All engine.* metrics folded across completed frames — the only copy of
  // the codec-side counters at this layer.
  telemetry::Snapshot metrics_ SWC_GUARDED_BY(mutex_);
  LatencyAccumulator latency_ SWC_GUARDED_BY(mutex_);
};

}  // namespace swc::runtime
